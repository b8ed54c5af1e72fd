package ring

// Test-only hooks: exported for this package's tests, with no
// caller in the program.

// Remove takes shard off the ring. Removing an absent shard is a
// no-op.
func (r *Ring) Remove(shard string) {
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
	for i, s := range r.shards {
		if s == shard {
			r.shards = append(r.shards[:i], r.shards[i+1:]...)
			break
		}
	}
}
