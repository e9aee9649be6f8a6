package api

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestNormalizeWindow(t *testing.T) {
	cases := []struct {
		name                string
		topK, limit, offset int
		wantOffset          int
		wantLimit           int
		wantErr             bool
	}{
		{"neither set defaults to 5", 0, 0, 0, 0, 5, false},
		{"top_k alone", 3, 0, 0, 0, 3, false},
		{"limit alone", 0, 7, 2, 2, 7, false},
		{"both set and equal", 4, 4, 0, 0, 4, false},
		{"both set and disagree", 3, 7, 0, 0, 0, true},
		{"negative top_k is unbounded", -1, 0, 0, 0, -1, false},
		{"any negative canonicalizes to -1", -7, 0, 0, 0, -1, false},
		{"negative limit is unbounded", 0, -3, 1, 1, -1, false},
		{"both unbounded agree", -2, -9, 0, 0, -1, false},
		{"unbounded vs bounded disagree", -1, 5, 0, 0, 0, true},
		{"negative offset clamps to 0", 2, 0, -4, 0, 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NormalizeWindow(tc.topK, tc.limit, tc.offset)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("NormalizeWindow(%d,%d,%d) = %+v, want error", tc.topK, tc.limit, tc.offset, w)
				}
				if !strings.Contains(err.Error(), "disagree") {
					t.Fatalf("error %q does not name the disagreement", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("NormalizeWindow(%d,%d,%d): %v", tc.topK, tc.limit, tc.offset, err)
			}
			if w.Offset != tc.wantOffset || w.Limit != tc.wantLimit {
				t.Fatalf("NormalizeWindow(%d,%d,%d) = %+v, want offset %d limit %d",
					tc.topK, tc.limit, tc.offset, w, tc.wantOffset, tc.wantLimit)
			}
		})
	}
}

func TestWindowEnd(t *testing.T) {
	if end := (Window{Offset: 3, Limit: 4}).End(); end != 7 {
		t.Fatalf("End() = %d, want 7", end)
	}
	if end := (Window{Offset: 3, Limit: -1}).End(); end != -1 {
		t.Fatalf("unbounded End() = %d, want -1", end)
	}
}

func TestValidRequestID(t *testing.T) {
	valid := []string{"a", "ci-smoke-1", "Node_7.trace:42", strings.Repeat("x", 128)}
	for _, id := range valid {
		if !ValidRequestID(id) {
			t.Errorf("ValidRequestID(%q) = false, want true", id)
		}
	}
	invalid := []string{
		"",
		strings.Repeat("x", 129),
		"has space",
		"tab\there",
		"new\nline",
		`quote"ed`,
		"curly{brace}",
		"null\x00byte",
		"high\xc3\xa9byte",
		"comma,separated",
	}
	for _, id := range invalid {
		if ValidRequestID(id) {
			t.Errorf("ValidRequestID(%q) = true, want false", id)
		}
	}
}

// FuzzNormalizeWindow holds the window resolver — run over the raw
// top_k/limit/offset of every /v1/search body, by nodes and gateways
// alike — to its contract on arbitrary input: it never panics, a window
// it returns is canonical (Limit -1 or positive, Offset non-negative) and
// a fixed point, and disagreeing positive top_k and limit are refused.
func FuzzNormalizeWindow(f *testing.F) {
	for _, c := range [][3]int{{0, 0, 0}, {3, 0, 0}, {0, 7, 2}, {4, 4, 0}, {3, 7, 0}, {-7, 0, -3}, {-1, -9, 1}, {-1, 5, 0}} {
		f.Add(c[0], c[1], c[2])
	}
	f.Fuzz(func(t *testing.T, topK, limit, offset int) {
		w, err := NormalizeWindow(topK, limit, offset)
		if topK > 0 && limit > 0 && topK != limit && err == nil {
			t.Fatalf("top_k %d and limit %d disagree but normalized to %+v", topK, limit, w)
		}
		if err != nil {
			return
		}
		if (w.Limit != -1 && w.Limit <= 0) || w.Offset < 0 {
			t.Fatalf("NormalizeWindow(%d, %d, %d) = %+v, not canonical", topK, limit, offset, w)
		}
		again, err := NormalizeWindow(w.Limit, w.Limit, w.Offset)
		if err != nil || again != w {
			t.Fatalf("re-normalizing %+v gave %+v, %v", w, again, err)
		}
	})
}

// TestBackoff pins the retry pacing the gateway's node client and the
// replication puller share: doubling from Min up to Max, back to Min on
// Reset, and no sleep once the context has ended.
func TestBackoff(t *testing.T) {
	b := Backoff{Min: time.Microsecond, Max: 4 * time.Microsecond}
	for _, want := range []time.Duration{2, 4, 4} {
		if err := b.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if b.cur != want*time.Microsecond {
			t.Fatalf("next backoff %v, want %v", b.cur, want*time.Microsecond)
		}
	}
	b.Reset()
	if err := b.Wait(context.Background()); err != nil || b.cur != 2*time.Microsecond {
		t.Fatalf("after Reset: next backoff %v, err %v", b.cur, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	slow := Backoff{Min: time.Hour, Max: time.Hour}
	if err := slow.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on a cancelled context: %v", err)
	}
}
