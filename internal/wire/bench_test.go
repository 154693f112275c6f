package wire

import (
	"testing"

	"github.com/drdp/drdp/internal/dpprior"
)

// The codec microbenchmarks behind Table 16: one hot upload message (a
// batch of task posteriors) and one hot download message (a prior),
// encoded into and decoded out of reused buffers, as on a live
// connection.

func benchRequest() *Request {
	tasks := make([]dpprior.TaskPosterior, 16)
	for i := range tasks {
		tasks[i] = testTask(8, float64(i))
	}
	return &Request{Kind: BatchAddTask, Tasks: tasks}
}

func benchResponse() *Response {
	return &Response{Prior: testPrior(8, 12), Version: 42}
}

func benchEncode[T any](b *testing.B, v *T, enc func([]byte, *T) []byte) {
	var buf []byte
	buf = enc(buf[:0], v)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = enc(buf[:0], v)
	}
}

func benchDecode[T any](b *testing.B, payload []byte, dec func([]byte, *T, bool) error) {
	var out T
	if err := dec(payload, &out, true); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec(payload, &out, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireRequestEncode(b *testing.B) {
	benchEncode(b, benchRequest(), AppendRequest)
}

func BenchmarkWireRequestDecode(b *testing.B) {
	benchDecode(b, AppendRequest(nil, benchRequest()), DecodeRequest)
}

func BenchmarkWireResponseEncode(b *testing.B) {
	benchEncode(b, benchResponse(), AppendResponse)
}

func BenchmarkWireResponseDecode(b *testing.B) {
	benchDecode(b, AppendResponse(nil, benchResponse()), DecodeResponse)
}
