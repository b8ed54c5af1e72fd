package service

// Warm-restart cache snapshots. A snapshot is the engine's LRU cache
// flattened to a JSON-lines file: one header line followed by exactly
// header.Entries entry lines, each carrying the pointer-free wire form
// of a cached result (the same CacheEntry the peer tier ships) plus a
// SHA-256 checksum over the key and the entry bytes. The header stamps
// the cache-key version, so a snapshot written under an older key
// layout can never warm a newer cache.
//
// Loading is all-or-nothing: every line is parsed and checksummed
// before anything touches the cache, so a truncated tail or a flipped
// bit rejects the whole file and the engine starts cold. Cold is safe
// (everything recompiles or peer-fetches); half-warm-with-garbage is
// not. Degraded results are never cached, hence never snapshotted —
// the writer keeps a belt-and-braces skip anyway.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

const (
	snapshotFormat  = "rolag-cache-snapshot"
	snapshotVersion = 1
	// maxSnapshotLine bounds a single snapshot line; an entry is one
	// printed function module plus optional asm, far below this.
	maxSnapshotLine = 64 << 20
	// maxSnapshotPrealloc caps the staging slice's pre-allocation. The
	// header is not checksummed, so its entry count is a hint, never an
	// allocation budget: a lying header must not be able to drive memory.
	maxSnapshotPrealloc = 4096
)

// ErrSnapshotRejected wraps every load failure so callers can log the
// rejection and proceed cold without inspecting the cause.
var ErrSnapshotRejected = errors.New("service: snapshot rejected")

// snapshotHeader is the first line of a snapshot file.
type snapshotHeader struct {
	Format    string `json:"format"`
	Version   int    `json:"version"`
	CacheKey  string `json:"cacheKey"`
	Shard     string `json:"shard,omitempty"`
	SavedUnix int64  `json:"savedUnix"`
	Entries   int    `json:"entries"`
}

// snapshotLine is one cached result: its content-address key, the wire
// entry, and a checksum over both.
type snapshotLine struct {
	Key   string          `json:"key"`
	Sum   string          `json:"sum"`
	Entry json.RawMessage `json:"entry"`
}

// snapshotSum checksums one entry line. The key participates so a
// bit-flip that moves an intact entry under the wrong content address
// is caught, not just corruption inside the entry bytes.
func snapshotSum(key string, entry []byte) string {
	h := sha256.New()
	io.WriteString(h, key)
	h.Write([]byte{'\n'})
	h.Write(entry)
	return hex.EncodeToString(h.Sum(nil))
}

// SaveSnapshot writes the cache to w and returns the number of entries
// written. Entries are ordered oldest-first so a loader that replays
// them through the cache reconstructs the recency order.
func (e *Engine) SaveSnapshot(w io.Writer, shard string) (int, error) {
	if e.cache == nil {
		return 0, errors.New("service: caching disabled, nothing to snapshot")
	}
	items := e.cache.exportAll()
	kept := items[:0]
	for _, it := range items {
		if it.val.degraded == nil {
			kept = append(kept, it)
		}
	}
	items = kept
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr := snapshotHeader{
		Format:    snapshotFormat,
		Version:   snapshotVersion,
		CacheKey:  cacheKeyVersion,
		Shard:     shard,
		SavedUnix: time.Now().Unix(),
		Entries:   len(items),
	}
	if err := enc.Encode(&hdr); err != nil {
		return 0, err
	}
	for _, it := range items {
		raw, err := json.Marshal(&it.val.CacheEntry)
		if err != nil {
			return 0, err
		}
		line := snapshotLine{Key: it.key, Sum: snapshotSum(it.key, raw), Entry: raw}
		if err := enc.Encode(&line); err != nil {
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return len(items), nil
}

// LoadSnapshot restores cache entries from r. On any validation
// failure — wrong format, stale cache-key version, truncation, or a
// checksum mismatch — nothing is loaded, the rejected counter is
// bumped, and the returned error wraps ErrSnapshotRejected; the caller
// logs it and serves cold. It never panics on malformed input.
func (e *Engine) LoadSnapshot(r io.Reader) (int, error) {
	if e.cache == nil {
		return 0, nil
	}
	n, err := e.loadSnapshot(r)
	if err != nil {
		e.metrics.snapshotRejected.Add(1)
		return 0, fmt.Errorf("%w: %v", ErrSnapshotRejected, err)
	}
	e.metrics.snapshotLoads.Add(1)
	e.metrics.snapshotEntries.Add(int64(n))
	return n, nil
}

func (e *Engine) loadSnapshot(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxSnapshotLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return 0, err
		}
		return 0, errors.New("empty file")
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return 0, fmt.Errorf("bad header: %v", err)
	}
	if hdr.Format != snapshotFormat {
		return 0, fmt.Errorf("format %q, want %q", hdr.Format, snapshotFormat)
	}
	if hdr.Version != snapshotVersion {
		return 0, fmt.Errorf("snapshot version %d, want %d", hdr.Version, snapshotVersion)
	}
	if hdr.CacheKey != cacheKeyVersion {
		return 0, fmt.Errorf("cache-key version %q, want %q (stale snapshot)", hdr.CacheKey, cacheKeyVersion)
	}
	if hdr.Entries < 0 {
		return 0, fmt.Errorf("negative entry count %d", hdr.Entries)
	}
	type staged struct {
		key string
		en  *entry
	}
	// Cap the pre-allocation and let append grow against what the file
	// actually holds; an overclaimed count fails the truncation check
	// below instead of allocating first and asking questions later.
	prealloc := hdr.Entries
	if prealloc > maxSnapshotPrealloc {
		prealloc = maxSnapshotPrealloc
	}
	entries := make([]staged, 0, prealloc)
	for i := 0; i < hdr.Entries; i++ {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return 0, err
			}
			return 0, fmt.Errorf("truncated: %d of %d entries", i, hdr.Entries)
		}
		var line snapshotLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return 0, fmt.Errorf("entry %d: %v", i, err)
		}
		if got := snapshotSum(line.Key, line.Entry); got != line.Sum {
			return 0, fmt.Errorf("entry %d (key %.16s...): checksum mismatch", i, line.Key)
		}
		var ce CacheEntry
		if err := json.Unmarshal(line.Entry, &ce); err != nil {
			return 0, fmt.Errorf("entry %d: %v", i, err)
		}
		entries = append(entries, staged{key: line.Key, en: &entry{CacheEntry: ce, fromSnapshot: true}})
	}
	// The whole file verified; commit. Oldest-first replay restores
	// LRU recency.
	for _, s := range entries {
		e.cache.put(s.key, s.en)
	}
	return len(entries), nil
}

// SaveSnapshotFile atomically writes the cache snapshot to path (via a
// temp file in the same directory plus rename), so a crash mid-save
// leaves the previous snapshot intact rather than a truncated one. The
// snapshot-saves counter is bumped only after the rename lands: it is
// the signal "a durable snapshot exists" (the chaos harness gates a
// victim kill on it), so a failed close or rename must not count.
func (e *Engine) SaveSnapshotFile(path, shard string) (int, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".rolag-snapshot-*")
	if err != nil {
		return 0, err
	}
	n, err := e.SaveSnapshot(tmp, shard)
	if err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	e.metrics.snapshotSaves.Add(1)
	return n, nil
}

// LoadSnapshotFile restores the cache from path. A missing file is a
// normal cold start and returns (0, nil); any other failure counts as
// a rejection and returns an error wrapping ErrSnapshotRejected.
func (e *Engine) LoadSnapshotFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		e.metrics.snapshotRejected.Add(1)
		return 0, fmt.Errorf("%w: %v", ErrSnapshotRejected, err)
	}
	defer f.Close()
	return e.LoadSnapshot(f)
}
