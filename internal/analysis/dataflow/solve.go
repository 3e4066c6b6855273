package dataflow

// Set is a fact set over analyzer-chosen fact values.
type Set[T comparable] map[T]bool

// Clone returns an independent copy of s.
func (s Set[T]) Clone() Set[T] {
	out := make(Set[T], len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func (s Set[T]) equal(o Set[T]) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if !o[k] {
			return false
		}
	}
	return true
}

// ForwardUnion runs a forward may-analysis to fixpoint: a block's in-set
// is the union of its predecessors' out-sets (the entry block starts from
// the empty set), and transfer maps an in-set to an out-set by walking the
// block's nodes. transfer must be monotone in its input and must not
// retain or mutate the passed set beyond returning it (possibly the same
// map, updated). Returns every block's in-set at fixpoint — analyzers
// replay transfer over the stable in-sets to attach diagnostics, so the
// solving pass itself stays silent.
func ForwardUnion[T comparable](g *Graph, transfer func(b *Block, in Set[T]) Set[T]) map[*Block]Set[T] {
	ins := make([]Set[T], len(g.Blocks))
	outs := make([]Set[T], len(g.Blocks))
	inWork := make([]bool, len(g.Blocks))
	var work []*Block
	// Seed in index order: index order is roughly topological for the
	// reducible graphs the builder produces, so the fixpoint is cheap.
	for _, bl := range g.Blocks {
		work = append(work, bl)
		inWork[bl.Index] = true
	}
	for len(work) > 0 {
		bl := work[0]
		work = work[1:]
		inWork[bl.Index] = false
		in := Set[T]{}
		for _, p := range bl.Preds {
			for k := range outs[p.Index] {
				in[k] = true
			}
		}
		ins[bl.Index] = in
		out := transfer(bl, in.Clone())
		if out.equal(outs[bl.Index]) && outs[bl.Index] != nil {
			continue
		}
		outs[bl.Index] = out
		for _, s := range bl.Succs {
			if !inWork[s.Index] {
				work = append(work, s)
				inWork[s.Index] = true
			}
		}
	}
	res := make(map[*Block]Set[T], len(g.Blocks))
	for _, bl := range g.Blocks {
		if ins[bl.Index] == nil {
			ins[bl.Index] = Set[T]{}
		}
		res[bl] = ins[bl.Index]
	}
	return res
}
