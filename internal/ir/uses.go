package ir

import (
	"fmt"
	"slices"
	"strconv"
)

// Def-use chains and the name index are body state maintained by the
// mutators in this package. An instruction is attached when its parent
// block belongs to a function; only attached instructions are users,
// and only their names (with the function's parameters and blocks) are
// taken. Every edit that changes either keeps the chains exact, so a
// query costs what it touches instead of a scan of the function.

// Users returns the distinct attached instructions that have in as an
// operand; one naming in through several operand slots is listed once.
// The slice belongs to in and changes with the body: callers must not
// modify it, and must copy it before editing the uses it lists.
func (in *Instr) Users() []*Instr { return in.users }

// attached reports whether in is part of a function body.
func (in *Instr) attached() bool { return in.Parent != nil && in.Parent.Parent != nil }

// count returns how many operand slots of in hold v.
func (in *Instr) count(v Value) int {
	n := 0
	for _, op := range in.Operands {
		if op == v {
			n++
		}
	}
	return n
}

// register adds in to the use-list of each distinct instruction operand.
func (in *Instr) register() {
	for i, op := range in.Operands {
		if d, ok := op.(*Instr); ok && !slices.Contains(in.Operands[:i], op) {
			d.users = append(d.users, in)
		}
	}
}

// unregister removes in from the use-list of each distinct instruction
// operand.
func (in *Instr) unregister() {
	for i, op := range in.Operands {
		if d, ok := op.(*Instr); ok && !slices.Contains(in.Operands[:i], op) {
			d.dropUser(in)
		}
	}
}

// dropUser deletes u from in's use-list, keeping the order of the rest.
func (in *Instr) dropUser(u *Instr) {
	if i := slices.Index(in.users, u); i >= 0 {
		in.users = slices.Delete(in.users, i, i+1)
	}
}

// attach registers a newly attached instruction's uses and name.
func (f *Func) attach(in *Instr) {
	in.register()
	f.addName(in.Name)
}

// adopt makes b the parent of in, which b's list now holds. An
// instruction entering the body registers its uses and name; one moving
// between blocks of the function changes nothing.
func (b *Block) adopt(in *Instr) {
	entering := !in.attached()
	in.Parent = b
	if entering && b.Parent != nil {
		b.Parent.attach(in)
	}
}

// sweeper detaches many instructions at once. Unregistering them one by
// one would scan a shared operand's use-list once per dead user, so the
// sweeper marks each operand whose list lost a user and filters every
// marked list once, when finished.
type sweeper struct {
	dirty []*Instr
}

// release unregisters the name of in, which is leaving f's body, and
// marks the use-lists of its operands for filtering.
func (s *sweeper) release(f *Func, in *Instr) {
	f.dropName(in.Name)
	for _, op := range in.Operands {
		if d, ok := op.(*Instr); ok && !d.mark {
			d.mark = true
			s.dirty = append(s.dirty, d)
		}
	}
}

// sweep drops the instructions of b for which gone reports true.
// Instructions already moved to another block leave b's list without
// being detached.
func (s *sweeper) sweep(b *Block, gone func(*Instr) bool) {
	kept := b.Instrs[:0]
	for _, in := range b.Instrs {
		switch {
		case !gone(in):
			kept = append(kept, in)
		case in.Parent == b:
			in.Parent = nil
			if b.Parent != nil {
				s.release(b.Parent, in)
			}
		}
	}
	clear(b.Instrs[len(kept):])
	b.Instrs = kept
}

// finish filters the detached users out of every marked use-list.
func (s *sweeper) finish() {
	for _, d := range s.dirty {
		d.mark = false
		d.users = slices.DeleteFunc(d.users, func(u *Instr) bool { return !u.attached() })
	}
}

// RemoveIf detaches, in one pass, every instruction of b for which gone
// reports true. An instruction already moved to another block of the
// function just leaves b's list.
func (b *Block) RemoveIf(gone func(*Instr) bool) {
	var s sweeper
	s.sweep(b, gone)
	s.finish()
}

// RemoveIf is Block.RemoveIf over every block of f, with each use-list
// filtered once however many of its users die.
func (f *Func) RemoveIf(gone func(*Instr) bool) {
	var s sweeper
	for _, b := range f.Blocks {
		s.sweep(b, gone)
	}
	s.finish()
}

// nameTaken reports whether a parameter, block or attached instruction
// of f is called name, building the name index on first use.
func (f *Func) nameTaken(name string) bool {
	if f.names == nil {
		f.names = make(map[string]int32, len(f.Params)+len(f.Blocks)+f.NumInstrs())
		for _, p := range f.Params {
			f.names[p.Name]++
		}
		for _, b := range f.Blocks {
			f.names[b.Name]++
			for _, in := range b.Instrs {
				f.addName(in.Name)
			}
		}
	}
	return f.names[name] > 0
}

// addName counts one more owner of name in the index, if it is built.
func (f *Func) addName(name string) {
	if f.names != nil && name != "" {
		f.names[name]++
	}
}

// dropName counts one owner of name fewer in the index, if it is built.
func (f *Func) dropName(name string) {
	if f.names == nil || name == "" {
		return
	}
	if n := f.names[name]; n > 1 {
		f.names[name] = n - 1
	} else {
		delete(f.names, name)
	}
}

// NameReplay replays unique-name requests against a function's names
// without changing its body. A transformation that is priced and then
// abandoned before it is built can replay the names it would have
// requested and burn them, leaving the name counter exactly where
// building it and undoing it with Checkpoint.RestoreKeepNames would
// have, so every later name stays the same.
//
// A replayed base must not end in a decimal digit, as no base the
// compiler requests does. A name handed out as base+counter then ends
// in the counter's digits alone, so no later request in the replay,
// bare or numbered with a larger counter, can spell it again, and the
// replay need not remember it. The replay edits f's name index for
// departures and bare names, and Burn undoes those edits, so every
// replay must end in Burn, with f unchanged in between.
type NameReplay struct {
	f       *Func
	counter int
	// edits lists the index entries the replay added (or removed), for
	// Burn to undo.
	edits []nameEdit
	buf   []byte
}

type nameEdit struct {
	name  string
	added bool
}

// ReplayNames starts a replay at f's current names and name counter.
func (f *Func) ReplayNames() NameReplay {
	f.nameTaken("") // build the index
	return NameReplay{f: f, counter: f.nameCounter}
}

// Drop replays an owner of name leaving the body.
func (r *NameReplay) Drop(name string) {
	if name == "" || r.spent(name) {
		return
	}
	r.f.dropName(name)
	r.edits = append(r.edits, nameEdit{name, false})
}

// spent reports whether no later request can be handed name: it ends
// in digits that spell no counter value above the current one. A
// numbered candidate ends in its larger counter, and a bare base in no
// digit, so name's departure cannot change a later name.
func (r *NameReplay) spent(name string) bool {
	i := len(name)
	for i > 0 && name[i-1] >= '0' && name[i-1] <= '9' {
		i--
	}
	digits := name[i:]
	if digits == "" {
		return false
	}
	if digits[0] == '0' {
		return true // no counter value is spelled with a leading zero
	}
	n, err := strconv.Atoi(digits)
	return err == nil && n <= r.counter
}

// Request replays a unique-name request for base, which takes the name
// it would get.
func (r *NameReplay) Request(base string) {
	if base == "" {
		base = "t"
	}
	if last := base[len(base)-1]; last >= '0' && last <= '9' {
		panic("ir: replayed name base " + base + " ends in a digit")
	}
	if r.f.names[base] == 0 {
		r.f.addName(base)
		r.edits = append(r.edits, nameEdit{base, true})
		return
	}
	for {
		r.counter++
		r.buf = strconv.AppendInt(append(r.buf[:0], base...), int64(r.counter), 10)
		if r.f.names[string(r.buf)] == 0 {
			return
		}
	}
}

// Burn undoes the replay's edits of f's name index and moves f's name
// counter to where the replayed requests left it.
func (r *NameReplay) Burn() {
	for i := len(r.edits) - 1; i >= 0; i-- {
		if e := r.edits[i]; e.added {
			r.f.dropName(e.name)
		} else {
			r.f.addName(e.name)
		}
	}
	r.edits = r.edits[:0]
	r.f.nameCounter = r.counter
}

// linkUses builds every use-list of a body assembled without the
// mutators (a clone): each instruction registers its operand uses.
func (f *Func) linkUses() {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			in.register()
		}
	}
}

// checkUses verifies every use-list of f against the operands of the
// body, whose instructions are the keys of body: a listed user must be
// in the body, use the value and appear once, and the lists must hold
// as many entries as the body has distinct (user, instruction operand)
// pairs. It is linear in the body size and allocates nothing unless it
// reports an error.
func (f *Func) checkUses(body map[*Instr]int) (*Instr, string) {
	want := 0
	for _, b := range f.Blocks {
		for _, u := range b.Instrs {
			for i, op := range u.Operands {
				if _, ok := op.(*Instr); ok && !slices.Contains(u.Operands[:i], op) {
					want++
				}
			}
		}
	}
	have := 0
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			var bad string
			for _, u := range v.users {
				_, inBody := body[u]
				switch {
				case !inBody:
					bad = "lists a user outside the function"
				case u.mark:
					bad = "lists a user twice"
				case u.count(v) == 0:
					bad = "lists an instruction that does not use it"
				}
				if bad != "" {
					break
				}
				u.mark = true
				have++
			}
			for _, u := range v.users {
				u.mark = false
			}
			if bad != "" {
				return v, bad
			}
		}
	}
	if have != want {
		return nil, fmt.Sprintf("miss %d users", want-have)
	}
	return nil, ""
}
