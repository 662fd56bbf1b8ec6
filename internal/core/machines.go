package core

import (
	"context"
	"encoding/json"
	"sync"

	"corona/internal/config"
)

// machinePool lends built machines to the cells of one call — a Sweep.Run,
// or a Client's Run, Replay or Compare — with one free list per
// configuration, keyed by the configuration's JSON (machineKey). Machines of
// one key are structurally identical, so a cell pops one instead of
// rebuilding; a cell that succeeds Resets its machine and parks it again.
// Every parked machine is therefore in construction state: it holds no
// Runner, MSHR hook or row stream of the cell that last used it. A cell that
// fails or panics never returns its machine, and a fabric that cannot reset
// in place (no noc.Resetter) is never parked. A pool with a Client comes
// stocked with the Client's idle machines and hands its own back when the
// call ends (Client.borrow, Client.restore).
type machinePool struct {
	mu   sync.Mutex
	free map[string][]*System
}

// machineKey is cfg's pool key: its full JSON, the identity the sweep cache
// fingerprints too. Label is part of it, since a machine reports its
// configuration's display name. A configuration that cannot be marshaled
// gets the empty key, which the pool never parks.
func machineKey(cfg config.System) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		return ""
	}
	return string(b)
}

// run simulates one cell on a machine of cfg: a parked one when the pool
// has it, a fresh build otherwise. mk attaches the cell's Runner. Only a
// cell that returns without error gives its machine back.
func (p *machinePool) run(ctx context.Context, key string, cfg config.System, mk func(*System) (*Runner, error)) (Result, error) {
	sys, err := p.get(key, cfg)
	if err != nil {
		return Result{}, err
	}
	r, err := mk(sys)
	if err != nil {
		return Result{}, err
	}
	res, err := r.Run(ctx)
	if err != nil {
		return Result{}, err
	}
	p.put(key, sys)
	return res, nil
}

func (p *machinePool) get(key string, cfg config.System) (*System, error) {
	p.mu.Lock()
	if free := p.free[key]; len(free) > 0 {
		sys := free[len(free)-1]
		free[len(free)-1] = nil
		p.free[key] = free[:len(free)-1]
		p.mu.Unlock()
		return sys, nil
	}
	p.mu.Unlock()
	return NewSystem(cfg)
}

func (p *machinePool) put(key string, sys *System) {
	if key == "" || sys.Reset() != nil {
		return
	}
	p.mu.Lock()
	p.free[key] = append(p.free[key], sys)
	p.mu.Unlock()
}
