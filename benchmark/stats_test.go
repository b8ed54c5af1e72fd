package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so summarize must sort
	}
	return xs
}

func TestSummarizeNearestRank(t *testing.T) {
	s := summarize(seq(2000))
	if s.N != 2000 || s.P50 != 1000 || s.Tail != 1980 || s.TailQ != 0.99 || s.Beyond != 20 {
		t.Fatalf("got %+v, want p50 1000, p99 1980 with 20 beyond", s)
	}
}

func TestSummarizeKeepsTenBeyondTail(t *testing.T) {
	for _, n := range []int{1000, 1010, 500, 100, 11} {
		s := summarize(seq(n))
		if s.Beyond < minTail {
			t.Errorf("n=%d: %d samples beyond the tail, want at least %d", n, s.Beyond, minTail)
		}
		if want := float64(n - s.Beyond); s.Tail != want {
			t.Errorf("n=%d: tail %v, want the sample at rank %v", n, s.Tail, want)
		}
	}
	// 1000 samples: p99's rank leaves exactly ten beyond, so it stays p99.
	if s := summarize(seq(1000)); s.TailQ != 0.99 {
		t.Errorf("n=1000: tail quantile %v, want 0.99", s.TailQ)
	}
	// 500 samples: p99 would leave five; the tail moves down to p98.
	if s := summarize(seq(500)); s.TailQ != 0.98 || s.Tail != 490 {
		t.Errorf("n=500: got %+v, want the p98 sample 490", s)
	}
}

func TestPerInputMedianDropsOneSlowPass(t *testing.T) {
	// Input 7 is compiled three times, once during a stall; input 3
	// twice, where the nearest-rank median is the faster.
	lat := []float64{2, 50, 9, 2, 10, 3}
	keys := []int{7, 7, 3, 7, 3, 99}
	want := []float64{2, 2, 9, 2, 9, 3}
	got := perInputMedian(lat, keys)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if lat[1] != 50 {
		t.Fatal("perInputMedian changed its input")
	}
}

func TestSummarizeDegenerate(t *testing.T) {
	if s := summarize(nil); s.N != 0 {
		t.Fatalf("empty input: %+v", s)
	}
	// Too few samples for any tail: report the maximum with none beyond.
	if s := summarize(seq(5)); s.Tail != 5 || s.Beyond != 0 || s.P50 != 3 {
		t.Fatalf("five samples: %+v", s)
	}
}
