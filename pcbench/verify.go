package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"net/http"
)

// The verification window is the first verifyLen entries after the
// warm-up: every timed phase completes them, so the subset drawn from
// it — and the digest over its answers — depends on the seed alone,
// never on how far a run got.
const (
	verifyLen   = 64
	verifyCount = 16
)

// window is the verification window and the seeded subset of it that
// is re-sent to a reference node.
type window struct {
	start, end int
	picks      []int
	seed       uint64
}

func verifyWindow(wl *workload, seed uint64) window {
	w := window{start: wl.warmup, end: wl.warmup + verifyLen, seed: seed}
	rng := rand.New(rand.NewPCG(seed, 0x766572))
	for _, off := range rng.Perm(verifyLen)[:verifyCount] {
		w.picks = append(w.picks, w.start+off)
	}
	return w
}

func (w window) contains(idx int) bool { return idx >= w.start && idx < w.end }

// collect copies the window's outcomes out of a phase, bodies
// included.
func (w window) collect(p *phase) map[int]outcome {
	kept := make(map[int]outcome)
	for _, o := range p.outcomes {
		if w.contains(o.idx) {
			kept[o.idx] = o
		}
	}
	return kept
}

// pairCheck compares the two copies of every distinct request of a
// paired stream: their answers must be byte-identical. A pair with a
// failed copy is already counted as failed.
func pairCheck(rep *report, p *phase, wl *workload) {
	if !wl.pairs {
		return
	}
	byIdx := make(map[int]*outcome, len(p.outcomes))
	for i := range p.outcomes {
		byIdx[p.outcomes[i].idx] = &p.outcomes[i]
	}
	pairs, bad := 0, 0
	for idx, a := range byIdx {
		if idx%2 != 0 {
			continue
		}
		b, ok := byIdx[idx+1]
		if !ok || !a.ok || !b.ok {
			continue
		}
		pairs++
		if a.digest != b.digest {
			bad++
			rep.fail("%s: the two copies of %s #%d answered differently", p.name, a.kind, idx)
		}
	}
	fmt.Fprintf(rep.w, "pairs %s: %d compared, %d differ\n", p.name, pairs, bad)
}

// verifyAgainstReference re-sends the window's seeded subset to a
// reference — a node of the fleet addressed directly on cluster-mix,
// a freshly booted node otherwise — and requires byte-identical
// answers. It prints a digest of the reference answers, which two
// commits share exactly when they answer the subset identically.
func verifyAgainstReference(rep *report, client *http.Client, cfg runConfig, f *fleet, w window, kept map[int]outcome) error {
	for idx := w.start; idx < w.end; idx++ {
		if o, ok := kept[idx]; !ok {
			rep.fail("verification window entry #%d was not completed", idx)
		} else if !o.ok {
			rep.problems = append(rep.problems, fmt.Sprintf("verification window entry #%d failed", idx))
		}
	}
	target, what := "", ""
	if cfg.wl.cluster {
		rng := rand.New(rand.NewPCG(w.seed, 0x646972))
		target = f.nodes[rng.IntN(len(f.nodes))].ln.base
		what = "a direct node"
	} else {
		ref, err := bootFleet(cfg.wl, nil)
		if err != nil {
			return err
		}
		defer ref.close()
		target = ref.base
		what = "a fresh node"
	}
	h := sha256.New()
	bad := 0
	for _, idx := range w.picks {
		rep.verification(1)
		out := fire(client, target, cfg.wl.at(idx))
		if !out.ok {
			rep.fail("verification #%d on %s: %s", idx, what, out.err)
			continue
		}
		h.Write(out.digest[:])
		if o, ok := kept[idx]; ok && o.ok && o.digest != out.digest {
			bad++
			rep.fail("verification #%d: %s answered differently from the timed phase", idx, what)
		}
	}
	fmt.Fprintf(rep.w, "verification: %d requests re-sent to %s, %d differ\n", len(w.picks), what, bad)
	fmt.Fprintf(rep.w, "verification digest: %x\n", h.Sum(nil))
	return nil
}
