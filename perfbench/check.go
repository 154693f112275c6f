package main

import (
	"fmt"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/edge"
)

// checkTier runs the checks every workload run ends with, after the
// final quiesce:
//   - every acked upload is in its shard leader's store, and the leader
//     store versions sum to the number of acked uploads (preload
//     included), plus at most the unknown ones: failed uploads that may
//     have landed;
//   - every replica of a shard serves byte-identical priors;
//   - a cold client's merged prior passes Validate.
func checkTier(t *tier, acked []dpprior.TaskPosterior, unknown int, dim int) []error {
	var errs []error
	sc := t.client(1)
	defer sc.Close()
	m, err := sc.Map()
	if err != nil {
		return []error{fmt.Errorf("shard map: %w", err)}
	}
	stored := make([]map[uint64]bool, len(m.Shards))
	var versions uint64
	for s := range m.Shards {
		leader := t.cl.LeaderOf(s)
		if leader == nil {
			errs = append(errs, fmt.Errorf("shard %d has no leader", s))
			continue
		}
		tasks, v := leader.Server().Store().View()
		versions += v
		stored[s] = make(map[uint64]bool, len(tasks))
		for _, task := range tasks {
			stored[s][task.Fingerprint()] = true
		}
	}
	missing := 0
	for _, task := range acked {
		fp := task.Fingerprint()
		if s := m.ShardOf(fp); stored[s] == nil || !stored[s][fp] {
			missing++
		}
	}
	if missing > 0 {
		errs = append(errs, fmt.Errorf("%d of %d acked uploads missing from their shard leader's store", missing, len(acked)))
	}
	if lo := uint64(len(acked)); versions < lo || versions > lo+uint64(unknown) {
		errs = append(errs, fmt.Errorf("leader store versions sum to %d, want %d acked uploads plus at most %d failed ones", versions, lo, unknown))
	}

	for s, sr := range m.Shards {
		priors := map[string]*dpprior.Prior{}
		for _, addr := range sr.Replicas() {
			p, err := fetchPrior(addr, dim)
			if err != nil {
				errs = append(errs, fmt.Errorf("shard %d replica %s: %w", s, addr, err))
				continue
			}
			priors[addr] = p
		}
		if err := compareReplicas(priors); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", s, err))
		}
	}

	merged, err := sc.FetchMergedPrior(dim)
	if err == nil {
		err = validMerged(merged)
	}
	if err != nil {
		errs = append(errs, fmt.Errorf("final merged prior: %w", err))
	}
	return errs
}

// compareReplicas requires every replica's served prior (by address) to
// encode to the same bytes.
func compareReplicas(priors map[string]*dpprior.Prior) error {
	var refAddr string
	for _, addr := range sortedKeys(priors) {
		if refAddr == "" {
			refAddr = addr
			continue
		}
		if err := samePrior(priors[refAddr], priors[addr]); err != nil {
			return fmt.Errorf("replica %s serves a different prior than %s: %w", addr, refAddr, err)
		}
	}
	return nil
}

func validMerged(p *dpprior.Prior) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("invalid: %w", err)
	}
	return nil
}

// fetchPrior reads one replica's served prior over its own connection.
func fetchPrior(addr string, dim int) (*dpprior.Prior, error) {
	c, err := edge.Dial(addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.SetRoundTripTimeout(10 * time.Second)
	p, _, err := c.FetchPrior(dim)
	return p, err
}
