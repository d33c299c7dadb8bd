// Package mc3 implements Metropolis-coupled MCMC — (MC)³ — the
// conventional parallel-MCMC technique reviewed in §IV: several chains
// run simultaneously, all but the first "heated" so they traverse the
// state space more freely; periodically two adjacent chains propose to
// swap states under a modified Metropolis–Hastings test. Only the cold
// chain is ever sampled. Where periodic partitioning distributes the
// *workload*, (MC)³ spends extra processors improving the *rate of
// convergence* — the two are complementary, which is why the paper
// positions it as related work rather than a competitor.
package mc3

import (
	"fmt"

	"repro/internal/imaging"
	"repro/internal/mcmc"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Options configures a coupled-chain sampler.
type Options struct {
	// Chains is the total number of chains including the cold one.
	Chains int
	// HeatStep is Δ in the standard incremental-heating ladder
	// β_k = 1/(1 + Δ·k); MrBayes uses Δ ≈ 0.1–0.5.
	HeatStep float64
	// SwapEvery is the number of iterations each chain advances between
	// swap attempts.
	SwapEvery int
	// Workers bounds the goroutines running chains concurrently.
	Workers int
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.Chains < 2 {
		return fmt.Errorf("mc3: need at least 2 chains")
	}
	if o.HeatStep <= 0 {
		return fmt.Errorf("mc3: HeatStep must be positive")
	}
	if o.SwapEvery < 1 {
		return fmt.Errorf("mc3: SwapEvery must be >= 1")
	}
	if o.Workers < 1 {
		return fmt.Errorf("mc3: Workers must be >= 1")
	}
	return nil
}

// DefaultOptions returns a 4-chain sampler with the MrBayes-style ladder.
func DefaultOptions() Options {
	return Options{Chains: 4, HeatStep: 0.3, SwapEvery: 200, Workers: 4}
}

// Sampler runs coupled chains over independent states of the same image.
type Sampler struct {
	Opt     Options
	Engines []*mcmc.Engine // Engines[0] is the cold chain (β = 1)
	Betas   []float64

	SwapProposed int64
	SwapAccepted int64

	r *rng.RNG
}

// New builds the sampler: one independent state and engine per chain,
// heated by the incremental ladder. Chains share the (immutable) image
// but own separate configurations, coverage buffers and RNG streams.
func New(img *imaging.Image, p model.Params, w mcmc.Weights, steps mcmc.StepSizes,
	opt Options, seed uint64) (*Sampler, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	master := rng.New(seed)
	s := &Sampler{Opt: opt, r: master.Split()}
	for k := 0; k < opt.Chains; k++ {
		st, err := model.NewState(img, p)
		if err != nil {
			return nil, err
		}
		e, err := mcmc.New(st, master.Split(), w, steps)
		if err != nil {
			return nil, err
		}
		beta := 1 / (1 + opt.HeatStep*float64(k))
		e.Beta = beta
		s.Engines = append(s.Engines, e)
		s.Betas = append(s.Betas, beta)
	}
	return s, nil
}

// Cold returns the cold chain's state — the only one whose samples
// target the true posterior.
func (s *Sampler) Cold() *model.State { return s.Engines[0].S }

// SwapRate returns the fraction of swap proposals accepted.
func (s *Sampler) SwapRate() float64 {
	if s.SwapProposed == 0 {
		return 0
	}
	return float64(s.SwapAccepted) / float64(s.SwapProposed)
}

// Run advances every chain by total iterations, attempting one swap
// between a random adjacent pair after every SwapEvery iterations.
// Chains advance concurrently (they share nothing mutable); swaps are
// applied at the barrier.
func (s *Sampler) Run(total int) {
	done := 0
	for done < total {
		n := s.Opt.SwapEvery
		if rem := total - done; rem < n {
			n = rem
		}
		sched.ForEach(len(s.Engines), s.Opt.Workers, func(i int) {
			s.Engines[i].RunN(n)
		})
		done += n
		s.attemptSwap()
	}
}

// attemptSwap proposes exchanging the states of a random adjacent pair
// (k, k+1). Acceptance follows the coupled-chain ratio:
//
//	α = min(1, exp((β_k − β_{k+1}) · (logπ(x_{k+1}) − logπ(x_k)))).
func (s *Sampler) attemptSwap() {
	k := s.r.Intn(len(s.Engines) - 1)
	a, b := s.Engines[k], s.Engines[k+1]
	s.SwapProposed++
	logAlpha := (s.Betas[k] - s.Betas[k+1]) * (b.S.LogPost() - a.S.LogPost())
	if mcmc.Accept(s.r, logAlpha) {
		// Swap the states; temperatures stay with ladder positions.
		a.S, b.S = b.S, a.S
		s.SwapAccepted++
	}
}

// SamplerDump is a serializable snapshot of a coupled-chain run: every
// chain's engine plus the swap RNG stream and counters.
type SamplerDump struct {
	Engines      []mcmc.EngineDump
	R            rng.Saved
	SwapProposed int64
	SwapAccepted int64
}

// Dump captures the sampler.
func (s *Sampler) Dump() SamplerDump {
	d := SamplerDump{
		Engines:      make([]mcmc.EngineDump, len(s.Engines)),
		R:            s.r.Save(),
		SwapProposed: s.SwapProposed,
		SwapAccepted: s.SwapAccepted,
	}
	for i, e := range s.Engines {
		d.Engines[i] = e.Dump()
	}
	return d
}

// Restore overwrites the sampler's state from a dump taken on a sampler
// built with the same image, parameters and options.
func (s *Sampler) Restore(d SamplerDump) error {
	if len(d.Engines) != len(s.Engines) {
		return fmt.Errorf("mc3: dump has %d chains, sampler has %d", len(d.Engines), len(s.Engines))
	}
	for i, e := range s.Engines {
		if err := e.Restore(d.Engines[i]); err != nil {
			return err
		}
	}
	s.r.Restore(d.R)
	s.SwapProposed = d.SwapProposed
	s.SwapAccepted = d.SwapAccepted
	return nil
}
