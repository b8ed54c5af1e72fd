package service

// Key returns the content address of a request: the same SHA-256 key
// the engine's cache is indexed by. Exported so the cluster layer can
// route by key ownership — the router and every rolagd shard must
// compute identical keys for identical requests, which this guarantees
// by construction (one implementation, shared by all of them).
func Key(req *Request) string { return cacheKey(req) }

// ExportCached returns a copy of the cache entry for key, or false
// when the key is not cached here. It only reads the local cache — it
// never compiles and never fetches from a peer, so peer cache lookups
// cannot recurse or cascade across the cluster.
func (e *Engine) ExportCached(key string) (*CacheEntry, bool) {
	if e.cache == nil {
		return nil, false
	}
	en, ok := e.cache.get(key)
	if !ok {
		return nil, false
	}
	ce := en.CacheEntry
	ce.Stats = copyStats(ce.Stats)
	return &ce, true
}
