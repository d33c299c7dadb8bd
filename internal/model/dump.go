package model

import (
	"fmt"

	"repro/internal/geom"
)

// This file is the serialization surface behind checkpoint/resume
// (pkg/parmcmc). The dumps are exact: restoring one reproduces not just
// the configuration but every piece of incidental ordering the samplers
// draw randomness through — the dense list order behind uniform circle
// selection, the free-ID list behind ID recycling, and the bucket
// iteration order behind merge-partner enumeration. Anything less and a
// resumed chain would diverge from the uninterrupted one on the first
// random selection.

// ConfigDump is a serializable snapshot of a Config, including dead
// slots and the free list so future Add calls recycle the same IDs.
type ConfigDump struct {
	// Circles[i] / Alive[i] mirror the internal item table; dead slots
	// keep their (stale) circle value, which is never read.
	Circles []geom.Ellipse
	Alive   []bool
	// Dense preserves the live-ID iteration/selection order; Free the ID
	// recycling order.
	Dense []int
	Free  []int
}

// Dump captures the configuration.
func (cf *Config) Dump() ConfigDump {
	d := ConfigDump{
		Circles: make([]geom.Ellipse, len(cf.items)),
		Alive:   make([]bool, len(cf.items)),
		Dense:   append([]int(nil), cf.dense...),
		Free:    append([]int(nil), cf.free...),
	}
	for i, it := range cf.items {
		d.Circles[i] = it.c
		d.Alive[i] = it.alive
	}
	return d
}

// Restore overwrites the configuration with a dumped snapshot.
func (cf *Config) Restore(d ConfigDump) error {
	if len(d.Circles) != len(d.Alive) {
		return fmt.Errorf("model: config dump length mismatch (%d circles, %d alive flags)",
			len(d.Circles), len(d.Alive))
	}
	cf.items = make([]item, len(d.Circles))
	cf.pos = make([]int, len(d.Circles))
	for i := range cf.items {
		cf.items[i] = item{c: d.Circles[i], alive: d.Alive[i]}
		cf.pos[i] = -1
	}
	cf.dense = append([]int(nil), d.Dense...)
	cf.free = append([]int(nil), d.Free...)
	live := 0
	for p, id := range cf.dense {
		if id < 0 || id >= len(cf.items) || !cf.items[id].alive {
			return fmt.Errorf("model: config dump dense entry %d is not a live ID", id)
		}
		cf.pos[id] = p
		live++
	}
	for _, it := range cf.items {
		if it.alive {
			live--
		}
	}
	if live != 0 {
		return fmt.Errorf("model: config dump dense list does not cover the live set")
	}
	return nil
}

// IndexDump is a serializable snapshot of a BucketIndex's contents. The
// geometry (bounds, cell size, bucket grid) is reconstructed from the
// image and parameters; only the bucket occupancy — whose order merge-
// partner scans iterate in — is stored.
type IndexDump struct {
	Buckets [][]int
}

// Dump captures the index contents.
func (ix *BucketIndex) Dump() IndexDump {
	d := IndexDump{Buckets: make([][]int, len(ix.buckets))}
	for i, b := range ix.buckets {
		if len(b) > 0 {
			d.Buckets[i] = append([]int(nil), b...)
		}
	}
	return d
}

// Restore overwrites the index contents. The receiver must have been
// built with the same bounds and maxRadius as the dumped index.
func (ix *BucketIndex) Restore(d IndexDump) error {
	if len(d.Buckets) != len(ix.buckets) {
		return fmt.Errorf("model: index dump has %d buckets, index has %d (geometry mismatch)",
			len(d.Buckets), len(ix.buckets))
	}
	for i, b := range d.Buckets {
		ix.buckets[i] = append(ix.buckets[i][:0], b...)
	}
	return nil
}

// StateDump is a serializable snapshot of a State's mutable parts. The
// immutable parts (gain buffer, prefix sums, parameters) are rebuilt
// from the image, and the coverage buffer is recomputed exactly from the
// configuration; the cached log-likelihood/log-prior are stored verbatim
// because they accumulate floating-point round-off that a recompute
// would not reproduce.
type StateDump struct {
	LogLik   float64
	LogPrior float64
	Cfg      ConfigDump
	Index    IndexDump
}

// Dump captures the state's mutable parts.
func (s *State) Dump() StateDump {
	return StateDump{
		LogLik:   s.logLik,
		LogPrior: s.logPrior,
		Cfg:      s.Cfg.Dump(),
		Index:    s.Index.Dump(),
	}
}

// Restore overwrites the state's mutable parts from a dump taken on a
// state built over the same image and parameters.
func (s *State) Restore(d StateDump) error {
	// Bump first: even a restore that fails may have overwritten parts.
	s.gen++
	if err := s.Cfg.Restore(d.Cfg); err != nil {
		return err
	}
	if err := s.Index.Restore(d.Index); err != nil {
		return err
	}
	for i := range s.Cover {
		s.Cover[i] = 0
	}
	for i := range s.tables {
		s.tables[i].ok = false
	}
	// Re-cover from freshly rasterised tables through the Field, whose
	// occupancy counters start from the cleared coverage.
	s.F.InitOcc()
	s.Cfg.ForEach(func(id int, c geom.Ellipse) {
		s.F.coverSpans(s.rasterise(id, c), +1)
	})
	s.logLik = d.LogLik
	s.logPrior = d.LogPrior
	return nil
}
