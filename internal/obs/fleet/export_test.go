package fleet

// Test-only hooks: exported for this package's tests, with no
// caller in the program.

// TraceDroppedTotal sums the fleet's shard-side dropped-span counters.
func (c *Collector) TraceDroppedTotal() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total uint64
	for _, r := range c.shards {
		if r.hasCur {
			total += r.cur.TraceDropped
		}
	}
	return total
}
