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
// requests. Routers and shards route by these keys and v4 snapshots are
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
			"13633cbf5d4a8e43708cc060b871986a6441a2e9faee97ff50f7f2b631030a94"},
		{"minic-none", CompileRequest{Source: keyMiniC, Config: CompileConfig{Opt: "none"}},
			"9ac12a6b9248148d643af9a86c9c05d768f23a87c1830351544c930e1b6713fe"},
		{"minic-llvm", CompileRequest{Source: keyMiniC, Config: CompileConfig{Opt: "llvm"}},
			"433ffe236fce1410570b5f65dd369d586bf455a10760f5f298cf54c1a1cbe535"},
		{"minic-unroll8", CompileRequest{Source: keyMiniC, Config: CompileConfig{Unroll: 8, Flatten: true}},
			"275fae70b779c46b5ad5af2613be7b0ce6eec37272d8e21a69531a1d9ffe79ec"},
		{"minic-asm", CompileRequest{Source: keyMiniC, Format: "asm"},
			"2bf096c2185901b165699286f41411338fc2fa8d37550a2deb68994acc8f84ad"},
		{"minic-remarks", CompileRequest{Source: keyMiniC, Remarks: true},
			"8f8b7718054caf75a915a0dbd5236ae0e0a11fad79b7195afcfae9a7d7ce99c9"},
		{"ir-rolag", CompileRequest{Source: keyIR, IR: true},
			"952eedd595f53b6b91d5bb013e742a3a02db34e300e7ada9ede2a1ffdeaf3269"},
		{"ir-none", CompileRequest{Source: keyIR, IR: true, Config: CompileConfig{Opt: "none"}},
			"e40be04018eba1aa10d637114b95095ade480fc83793b5c7f9a326b50f52630e"},
		{"ir-llvm", CompileRequest{Source: keyIR, IR: true, Config: CompileConfig{Opt: "llvm"}},
			"ef0b49b040a88c3b5a212070498fc688f5b8067394f0dbe665de4649fc57141b"},
		{"ir-unroll8", CompileRequest{Source: keyIR, IR: true, Config: CompileConfig{Unroll: 8, Flatten: true}},
			"6209eb172f9ebabe6e30d477f8573f0a07f5477f8ae81c04bfbc480c40bca32b"},
		{"ir-asm", CompileRequest{Source: keyIR, IR: true, Format: "asm"},
			"01a85637ca36c80d85f3a8e9ba6ae4de6605388584b68c9fdff708675f05cb57"},
		{"ir-remarks", CompileRequest{Source: keyIR, IR: true, Remarks: true},
			"e2c25d987e063f290089cc5ad2b29e908aaa70ecddad011f4ee3082331192fa5"},
		{"ir-unroll8-asm-remarks", CompileRequest{Source: keyIR, IR: true, Config: CompileConfig{Unroll: 8}, Format: "asm", Remarks: true},
			"7af3dd718f1f6e633f006648b095d21d74cdefe3b2a5f016b7b9ab37725c72b3"},
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
