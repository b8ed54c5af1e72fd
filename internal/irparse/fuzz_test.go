package irparse_test

import (
	"testing"

	"rolag/internal/cc"
	"rolag/internal/irparse"
	"rolag/internal/passes"
	"rolag/internal/rolag"
	"rolag/internal/workloads/angha"
	"rolag/internal/workloads/tsvc"
)

// FuzzParseModule feeds raw text to the textual IR parser, the boundary
// rolagd exposes with "ir": true. The parser must never panic, and any
// module it accepts must round-trip: print(parse(print(m))) == print(m).
func FuzzParseModule(f *testing.F) {
	for _, fn := range angha.Generate(4, 13) {
		m, err := cc.Compile(fn.Src, fn.Name)
		if err != nil {
			f.Fatal(err)
		}
		passes.Standard().Run(m)
		f.Add(m.String())
	}
	for _, name := range []string{"s000", "s451"} {
		k := tsvc.Find(name)
		m, err := cc.Compile(k.Src, k.Name)
		if err != nil {
			f.Fatal(err)
		}
		passes.Standard().Run(m)
		rolag.RollModule(m, nil)
		f.Add(m.String())
	}
	for _, shape := range []func(int) string{nestedStruct, nestedArray, nestedConst, nestedPointer} {
		f.Add(shape(cc.MaxDepth + 1))
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := irparse.ParseModule(src)
		if err != nil {
			return
		}
		text := m.String()
		parsed, err := irparse.ParseModule(text)
		if err != nil {
			t.Fatalf("printed module does not reparse: %v\ninput:\n%s\nprinted:\n%s", err, src, text)
		}
		if again := parsed.String(); again != text {
			t.Fatalf("round-trip differs\n--- printed ---\n%s\n--- reparsed ---\n%s", text, again)
		}
	})
}
