package ir

// Checkpoint is an identity-preserving snapshot of a function body, for
// transformations that may have to be undone (speculative rolling, the
// fail-soft sandbox). Take copies the block list, every block's fields
// and every instruction's fields by value, with the operand, branch
// target and use-list slices copied into one slab each; Restore writes
// all of it back into the same *Block and *Instr objects, so pointers
// held across the checkpoint (analysis caches, skip sets, remark
// anchors) stay valid and every restored instruction has its users of
// Take time again. Objects created after Take are detached: they leave
// the body with no parent. An instruction outside the body at Take is
// not saved, so a transformation to be undone must not give it users.
//
// A Checkpoint reuses its buffers for the next Take while the body it
// saved is kept (the transformation committed). Restore hands the
// buffers to the restored body, which then owns them, so the next Take
// after a Restore allocates fresh ones. The zero value is ready to use.
type Checkpoint struct {
	f       *Func
	counter int
	blocks  []*Block // f.Blocks at Take
	bstate  []Block  // saved fields of blocks[i]; Instrs point into instrs
	instrs  []*Instr // every instruction, in body order: the Instrs slab
	istate  []Instr  // saved fields of instrs[i]; slices point into the slabs
	ops     []Value  // Operands slab
	targets []*Block // Blocks slab
	users   []*Instr // use-list slab
}

// Take snapshots f's body and name counter, replacing any earlier
// snapshot held by c.
func (c *Checkpoint) Take(f *Func) {
	nInstrs, nOps, nTargets, nUsers := 0, 0, 0, 0
	for _, b := range f.Blocks {
		nInstrs += len(b.Instrs)
		for _, in := range b.Instrs {
			nOps += len(in.Operands)
			nTargets += len(in.Blocks)
			nUsers += len(in.users)
		}
	}
	// Size every buffer before filling any: the saved slices alias the
	// slabs, so a slab must not move once slicing starts.
	c.f = f
	c.counter = f.nameCounter
	c.blocks = append(resize(c.blocks, 0, len(f.Blocks)), f.Blocks...)
	c.bstate = resize(c.bstate, len(f.Blocks), len(f.Blocks))
	c.instrs = resize(c.instrs, 0, nInstrs)
	c.istate = resize(c.istate, nInstrs, nInstrs)
	c.ops = resize(c.ops, 0, nOps)
	c.targets = resize(c.targets, 0, nTargets)
	c.users = resize(c.users, 0, nUsers)
	for bi, b := range f.Blocks {
		start := len(c.instrs)
		c.instrs = append(c.instrs, b.Instrs...)
		c.bstate[bi] = *b
		if len(b.Instrs) > 0 {
			c.bstate[bi].Instrs = c.instrs[start:len(c.instrs):len(c.instrs)]
		}
	}
	for ii, in := range c.instrs {
		st := &c.istate[ii]
		*st = *in
		if len(in.Operands) > 0 {
			start := len(c.ops)
			c.ops = append(c.ops, in.Operands...)
			st.Operands = c.ops[start:len(c.ops):len(c.ops)]
		}
		if len(in.Blocks) > 0 {
			start := len(c.targets)
			c.targets = append(c.targets, in.Blocks...)
			st.Blocks = c.targets[start:len(c.targets):len(c.targets)]
		}
		if len(in.users) > 0 {
			start := len(c.users)
			c.users = append(c.users, in.users...)
			st.users = c.users[start:len(c.users):len(c.users)]
		}
	}
}

// Restore puts the body saved by the last Take back into the same
// objects and rewinds the function's name counter, so later names are
// exactly those the function would have produced without the undone
// transformation. The snapshot is consumed: Restore may be called once
// per Take.
func (c *Checkpoint) Restore() {
	c.f.nameCounter = c.counter
	c.RestoreKeepNames()
}

// RestoreKeepNames is Restore without rewinding the name counter: names
// generated by the undone transformation stay burned, as RoLAG's
// rejected roll attempts have always left them.
func (c *Checkpoint) RestoreKeepNames() {
	// Detach the current body first; the restore re-attaches what was
	// saved, so only objects created since Take stay detached.
	for _, b := range c.f.Blocks {
		b.Parent = nil
		for _, in := range b.Instrs {
			in.Parent = nil
		}
	}
	c.f.names = nil // rebuilt on the next unique-name request
	c.f.Blocks = c.blocks
	for bi, b := range c.blocks {
		*b = c.bstate[bi]
	}
	for ii, in := range c.instrs {
		*in = c.istate[ii]
	}
	// The restored body now owns the slabs; the next Take starts fresh.
	*c = Checkpoint{}
}

// resize returns s with length n and capacity at least capacity,
// reusing s's backing array when it is large enough.
func resize[T any](s []T, n, capacity int) []T {
	if cap(s) < capacity {
		return make([]T, n, capacity)
	}
	return s[:n]
}
