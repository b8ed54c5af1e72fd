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
// requests. Routers and shards route by these keys and v5 snapshots are
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
			"ae884bfd3c1b742b8604017dd0468f56404b0fa04aba57a8d405590ddbfe7377"},
		{"minic-none", CompileRequest{Source: keyMiniC, Config: CompileConfig{Opt: "none"}},
			"7f3e5627dc750fcabadf7644e7bcc28e874c74760cf8e612ca13a9c80dab4ed8"},
		{"minic-llvm", CompileRequest{Source: keyMiniC, Config: CompileConfig{Opt: "llvm"}},
			"908c47caa6812c84819dd2554ac57bf96e424984e84e5909e02ebffe0432a1ba"},
		{"minic-unroll8", CompileRequest{Source: keyMiniC, Config: CompileConfig{Unroll: 8, Flatten: true}},
			"962657f6ea2f3548341f75044a66bebae7b40ec26237e37b5ae0050a3dc0342d"},
		{"minic-asm", CompileRequest{Source: keyMiniC, Format: "asm"},
			"c30c1fce951c7e7b1b39ecee8069ac04f155859c6852f4d3299312710cc2b310"},
		{"minic-remarks", CompileRequest{Source: keyMiniC, Remarks: true},
			"3b19326e12c745c5a5f0673485fdef9a6b60403e41865c945fab88b9ec082b6c"},
		{"ir-rolag", CompileRequest{Source: keyIR, IR: true},
			"4fe46082cc88618fd7e35aed60a667bb33e2536d6bd7ddb8561a157c2093e344"},
		{"ir-none", CompileRequest{Source: keyIR, IR: true, Config: CompileConfig{Opt: "none"}},
			"ce4fe405a16caa324522c9a4612625dced836003c04ad752f20f3be3e04392e0"},
		{"ir-llvm", CompileRequest{Source: keyIR, IR: true, Config: CompileConfig{Opt: "llvm"}},
			"0fd3261371f7606726a23f47ccf3b6717e9aa8b210babdf49a396408f3294864"},
		{"ir-unroll8", CompileRequest{Source: keyIR, IR: true, Config: CompileConfig{Unroll: 8, Flatten: true}},
			"46c661576ca31de5b76bf028c7d6d8c5046e5f7afd71c27aab36d941675d948d"},
		{"ir-asm", CompileRequest{Source: keyIR, IR: true, Format: "asm"},
			"bb050f143d32904f9b14315dd808a6d5a67dabb446a4ff7a808fa95e8a3259e9"},
		{"ir-remarks", CompileRequest{Source: keyIR, IR: true, Remarks: true},
			"ed6206bab9b80293eb15c2e1ffdd2802104a865b0124c0922ebb2f4aa100ebc7"},
		{"ir-unroll8-asm-remarks", CompileRequest{Source: keyIR, IR: true, Config: CompileConfig{Unroll: 8}, Format: "asm", Remarks: true},
			"59909dd2df95bd93a5548f0131830e6819fbce21a62d055b0a00c8ddf87dd285"},
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
