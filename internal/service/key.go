package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"rolag"
)

// cacheKeyVersion tags the cache-key layout. It is the first component
// of every key and is stamped into cache snapshots, so a snapshot
// written under an older key layout can never warm a cache whose keys
// are hashed under a newer one — the loader rejects it and starts cold.
//
// v4: cached assembly no longer names the module and prints zero tails
// as .zero, so v3 entries would serve stale text.
//
// v5: a rejected roll rewinds the function's name counter, so cached IR
// of a function with a rejected roll now has different SSA and block
// names; a v4 snapshot would break serial = daemon parity after a
// restart.
//
// v6: the minimum lane count and the profit model's call and branch
// sizes are constants of the optimizer, no longer options, so the key
// stops hashing them. The layout changed while every output stayed the
// same; v5 snapshots are rejected because their keys no longer match.
const cacheKeyVersion = "v6"

// cacheKey derives the content address of a request: the SHA-256 of the
// source text plus a canonical encoding of every Config field that can
// change the compiled output.
//
// Config.IRInput is part of the key (in the position the layout has
// always hashed the input flag at): the same bytes read as mini-C and
// as IR are different programs.
// Config.Name is deliberately excluded — the module name never appears
// in the printed IR, the assembly or any size measurement, so two
// requests that differ only in name share one compilation. The
// fail-soft knobs (FailSoft, PassBudget, Guard) are excluded too: the
// engine sets them itself on every job, and a degraded result is never
// stored, so the cache only ever holds outputs equal to what the
// fail-hard pipeline would produce for the same key. Config.Parallelism
// has no effect on the pipeline, so it cannot split the key space
// either. Config.Remarks IS part of the key: remarks travel in
// the Response, so a remark-less cached result must not satisfy a
// request that asked for them (and vice versa — remark streams are
// deterministic, so a remarks=true entry answers every remarks=true
// request exactly).
// Request.Format IS part of the key for the same reason Remarks is:
// the lowered assembly travels in the entry, so an asm-less cached
// result must not satisfy a request that asked for asm.
func cacheKey(req *Request) string {
	h := sha256.New()
	cfg := &req.Config
	fmt.Fprintf(h, "%s|ir=%t|unroll=%d|opt=%d|flatten=%t|skipcleanup=%t|remarks=%t|format=%s|",
		cacheKeyVersion, cfg.IRInput, cfg.Unroll, cfg.Opt, cfg.Flatten, cfg.SkipCleanup, cfg.Remarks, req.Format)
	if cfg.Opt == rolag.OptRoLAG {
		o := cfg.Options
		if o == nil {
			o = rolag.DefaultOptions()
		}
		fmt.Fprintf(h, "intseq=%t|neutralptr=%t|neutralbinop=%t|commutative=%t|recurrence=%t|reduction=%t|joint=%t|minmax=%t|mismatch=%t|fastmath=%t|alwaysroll=%t|",
			o.EnableIntSeq, o.EnableNeutralPtr, o.EnableNeutralBinOp,
			o.EnableCommutative, o.EnableRecurrence, o.EnableReduction,
			o.EnableJoint, o.EnableMinMaxReduction, o.EnableMismatch,
			o.FastMath, o.AlwaysRoll)
	}
	h.Write([]byte(req.Source))
	return hex.EncodeToString(h.Sum(nil))
}
