package rolagdapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"rolag/internal/service"
)

// FuzzDecodeRequest feeds arbitrary bytes to the decoding rolagd and
// rolag-router run on untrusted request bodies: decoded as a
// CompileRequest and as a BatchRequest, each request then mapped with
// ToService. It must never panic, and decoding and validating the same
// bytes twice must give the same answer: the same errors, or requests
// with the same cache key.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		// The bodies the API tests send.
		`{"source":"int f() { return 1; }"}`,
		`{"source":"bogus"}`,
		`{not json`,
		`{"source":"void f() {}","config":{"opt":"wat"}}`,
		`{"source":"int f( {"}`,
		`{"source":"void f(int *a, int v){a[0]=v;}","config":{"opt":"rolag"},"format":"asm","remarks":true}`,
		`{"source":"x","ir":true,"emitIR":false,"timeoutMs":50,"config":{"opt":"llvm","unroll":4,"flatten":true}}`,
		`{"source":"x","config":{"noSpecialNodes":true,"extensions":true,"fastMath":true,"alwaysRoll":true},"format":"elf"}`,
		`{"items":[{"source":"int f() { return 1; }"},{"source":"x","config":{"opt":"none"}}],"timeoutMs":10}`,
		`{"source":"x","config":{"unroll":17}}`,
		`{"items":[]}`,
		`{"items":[{"config":{"opt":"wat"}}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if a, b := decodeAndValidate(data), decodeAndValidate(data); a != b {
			t.Fatalf("decoding the same body twice disagreed:\n%s\nvs\n%s", a, b)
		}
	})
}

// decodeAndValidate renders the outcome of decoding data the way the
// handlers do, as each request type, and mapping every request it holds.
func decodeAndValidate(data []byte) string {
	var sb strings.Builder
	var cr CompileRequest
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&cr); err != nil {
		fmt.Fprintf(&sb, "compile: decode error: %v\n", err)
	} else {
		fmt.Fprintf(&sb, "compile: %s\n", validate(&cr))
	}
	var br BatchRequest
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&br); err != nil {
		fmt.Fprintf(&sb, "batch: decode error: %v\n", err)
	} else {
		for i := range br.Items {
			fmt.Fprintf(&sb, "batch item %d: %s\n", i, validate(&br.Items[i]))
		}
	}
	return sb.String()
}

func validate(cr *CompileRequest) string {
	req, err := cr.ToService()
	if err != nil {
		return "invalid: " + err.Error()
	}
	return "key " + service.Key(&req)
}
