package rolagdapi

import (
	"testing"

	"rolag/internal/service"
)

// keyMiniC and keyIR are one function as mini-C and as its printed,
// un-rolled IR.
const (
	keyMiniC = "void f(int *a, int v){a[0]=v*10;a[1]=v*13;a[2]=v*16;a[3]=v*19;}\n"
	keyIR    = `func void @f(i32* %a, i32 %v) {
entry:
  %t3 = mul i32 %v, 10
  store i32 %t3, i32* %a
  %t5 = gep i32* %a, i64 1
  %t7 = mul i32 %v, 13
  store i32 %t7, i32* %t5
  %t9 = gep i32* %a, i64 2
  %t11 = mul i32 %v, 16
  store i32 %t11, i32* %t9
  %t13 = gep i32* %a, i64 3
  %t15 = mul i32 %v, 19
  store i32 %t15, i32* %t13
  ret void
}
`
)

// TestServiceKeyPinned pins service.Key for a fixed set of wire
// requests. Routers and shards route by these keys and v6 snapshots are
// indexed by them, so a change to the request mapping or to the key
// layout that moves any of them re-keys the fleet and must bump the
// cache-key version instead.
func TestServiceKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cr   CompileRequest
		want string
	}{
		{"minic-rolag", CompileRequest{Source: keyMiniC},
			"039ad912d3bf5295f3ac8ac18af2a7683fbd3f8494c646e9855ea2d6e31965e8"},
		{"minic-none", CompileRequest{Source: keyMiniC, Config: CompileConfig{Opt: "none"}},
			"153d8eb58ea6be5d4f72dd158d994543338e2dc18f1955b1a2ccaa445073ca98"},
		{"minic-llvm", CompileRequest{Source: keyMiniC, Config: CompileConfig{Opt: "llvm"}},
			"c1209cd3493a8d83202016b9ebfd5b775f0ab03af819149bd28fd6ea43e7ad18"},
		{"minic-unroll8", CompileRequest{Source: keyMiniC, Config: CompileConfig{Unroll: 8, Flatten: true}},
			"9c7ea1d945a19a1aeda745cc004cade6b964e2b4a82e40446af9e8ab9a07f5f8"},
		{"minic-asm", CompileRequest{Source: keyMiniC, Format: "asm"},
			"285800c1402f348228c4da5ff95add5c7c4bd6e5cea2674e5a9601ac48266c54"},
		{"minic-remarks", CompileRequest{Source: keyMiniC, Remarks: true},
			"03b7951e80ceff664149608d99ab401020a1824382fd229205593bf3998916ae"},
		{"ir-rolag", CompileRequest{Source: keyIR, IR: true},
			"889c5219c187eca64a528f2ebabae1168b4f830f8206be1d419100f35eab28da"},
		{"ir-none", CompileRequest{Source: keyIR, IR: true, Config: CompileConfig{Opt: "none"}},
			"a472ccf4ba9608761128aa3cd7f376ea378bf353080c78826af2f764c6b4f67a"},
		{"ir-llvm", CompileRequest{Source: keyIR, IR: true, Config: CompileConfig{Opt: "llvm"}},
			"88f82396f31a83dbdd88574afeffabbc8dfe5dcbcdd4d5051dcab330fe6df1ad"},
		{"ir-unroll8", CompileRequest{Source: keyIR, IR: true, Config: CompileConfig{Unroll: 8, Flatten: true}},
			"77abaaf457ff5cb53c30b233d8a2097edc61425379e7895c44fcf67fbf0ad6ad"},
		{"ir-asm", CompileRequest{Source: keyIR, IR: true, Format: "asm"},
			"4689bbc6edd6d2e2b6b9555b27908fa2b762f8aa2e9ecb6510d2e2ee0938d759"},
		{"ir-remarks", CompileRequest{Source: keyIR, IR: true, Remarks: true},
			"00399a9f6cbf8e7dc50c96e62fcffd5350a3b03b672316e59a4cc128d803ecfb"},
		{"ir-unroll8-asm-remarks", CompileRequest{Source: keyIR, IR: true, Config: CompileConfig{Unroll: 8}, Format: "asm", Remarks: true},
			"b645507b39ac142ae62547e76384cc2db00c2b68e75ed819fcf4fe10b53842eb"},
	} {
		req, err := tc.cr.ToService()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := service.Key(&req); got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.want)
		}
	}
}
