package serve

import (
	"context"
	"errors"
	"fmt"

	"factordb/internal/ra"
)

// Analyze is EXPLAIN ANALYZE's backend: one instrumented evaluation of
// plan per world copy the strategy samples from, per-operator counters
// merged.
func (e *Engine) Analyze(ctx context.Context, plan ra.Plan) (*ra.StreamStats, error) {
	if e.Closed() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := e.strat.analyze(ctx, plan)
	if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ctx.Err()) {
		e.m.failed.Inc()
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return st, err
}

// analyze runs the pipeline on every chain in the pool. Each chain
// executes it against its own world at an epoch boundary, so the
// aggregated actual-row counts are a cross-chain sample of the plan's
// runtime behavior — per-chain variance in the possible worlds averages
// out exactly the way the engine's marginal estimates do.
func (p pool) analyze(ctx context.Context, plan ra.Plan) (*ra.StreamStats, error) {
	replies := make([]analyzeReply, len(p.chains))
	done := make(chan struct{}, len(p.chains))
	for i, c := range p.chains {
		go func(i int, c *chain) {
			replies[i] = c.analyze(ctx, plan)
			done <- struct{}{}
		}(i, c)
	}
	for range p.chains {
		<-done
	}
	var total *ra.StreamStats
	for i := range replies {
		if err := replies[i].err; err != nil {
			return nil, err
		}
		if total == nil {
			total = replies[i].stats
		} else if err := total.Merge(replies[i].stats); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// analyze delivers an analyzeReq to the chain goroutine, honoring ctx
// and engine shutdown.
func (c *chain) analyze(ctx context.Context, plan ra.Plan) analyzeReply {
	req := analyzeReq{plan: plan, reply: make(chan analyzeReply, 1)}
	select {
	case c.ctl <- req:
	case <-c.done:
		return analyzeReply{err: ErrClosed}
	case <-ctx.Done():
		return analyzeReply{err: ctx.Err()}
	}
	select {
	case rep := <-req.reply:
		return rep
	case <-c.done:
		return analyzeReply{err: ErrClosed}
	}
}
