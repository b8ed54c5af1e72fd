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
// requests. Routers and shards route by these keys and v3 snapshots are
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
			"b840602ddad09b19e3e4b6c018634b7ae2a8b7c0ec3e1c1157d3171dc87a6643"},
		{"minic-none", CompileRequest{Source: keyMiniC, Config: CompileConfig{Opt: "none"}},
			"ebfd503a0b4b2cd2e40d5b45ecae4acc6cacde7bc3b612b70e3948f56ffa9399"},
		{"minic-llvm", CompileRequest{Source: keyMiniC, Config: CompileConfig{Opt: "llvm"}},
			"6654fd6a91c63cd7783a3f999e69a89c5fe04e6a91bcea6355ae55ecd7ccb4fa"},
		{"minic-unroll8", CompileRequest{Source: keyMiniC, Config: CompileConfig{Unroll: 8, Flatten: true}},
			"45276dbaeca063de7e07a42b70c1df5359ce1d8151d7893b58d104100b52155a"},
		{"minic-asm", CompileRequest{Source: keyMiniC, Format: "asm"},
			"b2ad3a1721311f64db7bcfef112622a8c47f304e407dde790d280757d69601a8"},
		{"minic-remarks", CompileRequest{Source: keyMiniC, Remarks: true},
			"d83c4a5365bf1536e517dc66bfec0ecfab5573635509cbfd3c0f6126c3981641"},
		{"ir-rolag", CompileRequest{Source: keyIR, IR: true},
			"e7b71bd33f77bd32bc712b2d21714fec67283966bec760fd866494ed3e0e3572"},
		{"ir-none", CompileRequest{Source: keyIR, IR: true, Config: CompileConfig{Opt: "none"}},
			"fe1d82d5b36eb6ff0fc815fca72ee127d4939ee2eeafc3da8f3e932fa9fed87c"},
		{"ir-llvm", CompileRequest{Source: keyIR, IR: true, Config: CompileConfig{Opt: "llvm"}},
			"240fbd2e9f1156c2e500146b52566f5b9246bf00a82e34c8eeace7ed566beaea"},
		{"ir-unroll8", CompileRequest{Source: keyIR, IR: true, Config: CompileConfig{Unroll: 8, Flatten: true}},
			"02b3e8ee9698d369657e1a46772ca14c9fa0959c2864cf2e003dae4485ed39d6"},
		{"ir-asm", CompileRequest{Source: keyIR, IR: true, Format: "asm"},
			"08ed88c29eaae2435cd3f9b3e33681c2cd323d4ae3894b2be6969e85874c3e7d"},
		{"ir-remarks", CompileRequest{Source: keyIR, IR: true, Remarks: true},
			"318939006e3e8053fe3b465962a8613b01dc61c40c87f4c110d6ff39f75069b6"},
		{"ir-unroll8-asm-remarks", CompileRequest{Source: keyIR, IR: true, Config: CompileConfig{Unroll: 8}, Format: "asm", Remarks: true},
			"f1014400b278c7a07209f99880408c4ca78f074e3589fe777e57275e77680c69"},
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
