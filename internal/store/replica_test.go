package store

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/corpus"
	"sbmlcompose/internal/sbml"
)

// Fault-injection sweep for the follower: cut the stream at every frame
// boundary (and inside frames), flip bytes, crash the follower
// mid-apply, kill the primary and promote — after every fault the
// follower must converge to a state byte-identical to the primary's
// acknowledged log, and a corrupt record must never be applied.

// newReplicationPrimary opens a primary store and serves its replication
// endpoints over httptest, so followers exercise the real HTTP protocol.
func newReplicationPrimary(t *testing.T) (*Store, *httptest.Server) {
	t.Helper()
	s := mustOpen(t, t.TempDir(), testOptions())
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replicate", s.ServeReplicate)
	mux.HandleFunc("GET /v1/replicate/snapshot", s.ServeReplicateSnapshot)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// fastReplicaOptions keeps test turnaround tight: short polls, short
// backoff.
func fastReplicaOptions(primaryURL string) ReplicaOptions {
	return ReplicaOptions{
		PrimaryURL: primaryURL,
		PollWait:   200 * time.Millisecond,
		MinBackoff: 10 * time.Millisecond,
		MaxBackoff: 100 * time.Millisecond,
	}
}

// harnessReplica wires a Replica around a store without starting the
// network loop, so tests can drive applyFrames deterministically.
func harnessReplica(t *testing.T, s *Store) *Replica {
	t.Helper()
	opts, err := ReplicaOptions{PrimaryURL: "http://unused.invalid"}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return &Replica{s: s, opts: opts, st: ReplicaStatus{Role: "follower"}}
}

// frameBoundaries returns every frame boundary offset in a feed buffer,
// including 0 and len(frames).
func frameBoundaries(t *testing.T, frames []byte) []int64 {
	t.Helper()
	bounds := []int64{0}
	off := int64(0)
	for off < int64(len(frames)) {
		_, end, ok := nextFrame(frames, off)
		if !ok {
			t.Fatalf("feed buffer torn at %d", off)
		}
		bounds = append(bounds, end)
		off = end
	}
	return bounds
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// replicationWorkload populates a store with adds and a remove and
// returns probe models for ranking comparisons.
func replicationWorkload(t *testing.T, s *Store, n int) []*sbml.Model {
	t.Helper()
	var probes []*sbml.Model
	for i := 0; i < n; i++ {
		m := testModel(i)
		mustAdd(t, s.Corpus(), m)
		if i < 2 {
			probes = append(probes, m)
		}
	}
	mustRemove(t, s.Corpus(), testModel(n/2).ID)
	return probes
}

// TestReplicaApplyCutAtEveryFrameBoundary: for every prefix of the feed
// — cut exactly on a boundary and cut mid-frame — the follower applies
// precisely the intact records, reports the damage for torn cuts, and
// converges once handed the rest of the stream from its durable seq.
// The feed holds keyless op-1 adds, as shipped from an sbwal-v1 segment;
// TestReplicaApplyKeyedCutAtEveryFrameBoundary runs the keyed feed.
func TestReplicaApplyCutAtEveryFrameBoundary(t *testing.T) {
	primary := mustOpen(t, t.TempDir(), testOptions())
	defer primary.Close()
	probes := replicationWorkload(t, primary, 5)
	tb, err := primary.ReadTail(context.Background(), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkCutAtEveryFrameBoundary(t, primary, probes, keylessFrames(t, tb.Frames))
}

// TestReplicaApplyKeyedCutAtEveryFrameBoundary is the frame-boundary cut
// check over the op-3 feed this code writes.
func TestReplicaApplyKeyedCutAtEveryFrameBoundary(t *testing.T) {
	primary := mustOpen(t, t.TempDir(), testOptions())
	defer primary.Close()
	probes := replicationWorkload(t, primary, 5)
	tb, err := primary.ReadTail(context.Background(), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ops := frameOps(t, tb.Frames); ops[opAddKeys] == 0 || ops[opAdd] != 0 {
		t.Fatalf("primary feed ops %v, want keyed adds only", ops)
	}
	checkCutAtEveryFrameBoundary(t, primary, probes, tb.Frames)
}

func checkCutAtEveryFrameBoundary(t *testing.T, primary *Store, probes []*sbml.Model, frames []byte) {
	t.Helper()
	bounds := frameBoundaries(t, frames)

	for k := 0; k < len(bounds); k++ {
		cuts := []int64{bounds[k]} // clean cut exactly on the boundary
		if k+1 < len(bounds) {
			cuts = append(cuts, bounds[k]+3) // torn cut inside frame k
		}
		for _, cut := range cuts {
			name := fmt.Sprintf("boundary%d_cut%d", k, cut)
			t.Run(name, func(t *testing.T) {
				follower := mustOpen(t, t.TempDir(), testOptions())
				defer follower.Close()
				r := harnessReplica(t, follower)

				err := r.applyFrames(frames[:cut], 0)
				torn := cut != bounds[k]
				if torn && err == nil {
					t.Fatal("mid-frame cut reported no damage")
				}
				if !torn && err != nil {
					t.Fatalf("clean boundary cut errored: %v", err)
				}
				// Exactly the k intact records are durable — never a torn one.
				if got := follower.LastSeq(); got != uint64(k) {
					t.Fatalf("after cut at %d: durable seq %d, want %d", cut, got, k)
				}
				// Re-request from the durable seq, as the pull loop does.
				if err := r.applyFrames(frames[bounds[k]:], follower.LastSeq()); err != nil {
					t.Fatalf("resume from seq %d: %v", k, err)
				}
				assertCorporaEquivalent(t, follower.Corpus(), primary.Corpus(), probes)
			})
		}
	}
}

// keylessFrames re-renders a clean feed buffer the way an sbwal-v1
// segment would have shipped it: every keyed add downgraded to a keyless
// op-1 add with the same seq, id and model bytes.
func keylessFrames(t *testing.T, frames []byte) []byte {
	t.Helper()
	var out []byte
	for off := int64(0); off < int64(len(frames)); {
		payload, end, ok := nextFrame(frames, off)
		if !ok {
			t.Fatalf("feed buffer torn at %d", off)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		if rec.op == opAddKeys {
			rec = walRecord{op: opAdd, seq: rec.seq, id: rec.id, sbml: rec.sbml}
		}
		out = append(out, appendFrame(nil, rec)...)
		off = end
	}
	return out
}

// frameOps counts each op in a clean feed buffer.
func frameOps(t *testing.T, frames []byte) map[byte]int {
	t.Helper()
	ops := map[byte]int{}
	for off := int64(0); off < int64(len(frames)); {
		payload, end, ok := nextFrame(frames, off)
		if !ok {
			t.Fatalf("feed buffer torn at %d", off)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		ops[rec.op]++
		off = end
	}
	return ops
}

// TestReplicaApplyRejectsBitFlips flips a byte inside every frame of the
// feed: the follower must refuse the damaged frame and everything after
// it, keep the verified prefix, and converge after a clean re-request.
// A corrupt record is never applied.
func TestReplicaApplyRejectsBitFlips(t *testing.T) {
	primary := mustOpen(t, t.TempDir(), testOptions())
	defer primary.Close()
	probes := replicationWorkload(t, primary, 5)
	tb, err := primary.ReadTail(context.Background(), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	frames := tb.Frames
	bounds := frameBoundaries(t, frames)

	for k := 0; k+1 < len(bounds); k++ {
		k := k
		t.Run(fmt.Sprintf("flipInFrame%d", k), func(t *testing.T) {
			follower := mustOpen(t, t.TempDir(), testOptions())
			defer follower.Close()
			r := harnessReplica(t, follower)

			corrupted := append([]byte(nil), frames...)
			mid := bounds[k] + (bounds[k+1]-bounds[k])/2
			corrupted[mid] ^= 0x20

			if err := r.applyFrames(corrupted, 0); err == nil {
				t.Fatalf("bit flip in frame %d went unnoticed", k)
			}
			// Only the frames before the flipped one were applied.
			if got := follower.LastSeq(); got != uint64(k) {
				t.Fatalf("after flip in frame %d: durable seq %d, want %d", k, got, k)
			}
			// The follower's ids are exactly the primary's first k ops' ids —
			// the corrupted record (and nothing after it) ever landed.
			wantIDs := replayIDs(t, frames[:bounds[k]])
			gotIDs := follower.Corpus().IDs()
			sort.Strings(wantIDs)
			sort.Strings(gotIDs)
			if len(gotIDs) != len(wantIDs) {
				t.Fatalf("follower holds %d ids after flip, want %d", len(gotIDs), len(wantIDs))
			}
			for i := range gotIDs {
				if gotIDs[i] != wantIDs[i] {
					t.Fatalf("follower id %q, want %q", gotIDs[i], wantIDs[i])
				}
			}
			// The clean re-request converges.
			if err := r.applyFrames(frames[bounds[k]:], follower.LastSeq()); err != nil {
				t.Fatalf("clean resume: %v", err)
			}
			assertCorporaEquivalent(t, follower.Corpus(), primary.Corpus(), probes)
		})
	}
}

// replayIDs computes the id set a clean prefix of the feed produces.
func replayIDs(t *testing.T, frames []byte) []string {
	t.Helper()
	present := map[string]bool{}
	off := int64(0)
	for off < int64(len(frames)) {
		payload, end, ok := nextFrame(frames, off)
		if !ok {
			t.Fatalf("clean prefix torn at %d", off)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		switch rec.op {
		case opAdd, opAddKeys:
			present[rec.id] = true
		case opRemove:
			delete(present, rec.id)
		default:
			t.Fatalf("frame at %d: unknown op %d", off, rec.op)
		}
		off = end
	}
	ids := make([]string, 0, len(present))
	for id := range present {
		ids = append(ids, id)
	}
	return ids
}

// TestReplicaEndToEndConvergesAndFollowsLive runs the real pull loop
// against the real HTTP feed: bootstrap catch-up, then live tailing of
// writes that happen while the follower is connected.
func TestReplicaEndToEndConvergesAndFollowsLive(t *testing.T) {
	primary, ts := newReplicationPrimary(t)
	probes := replicationWorkload(t, primary, 6)

	follower := mustOpen(t, t.TempDir(), testOptions())
	defer follower.Close()
	rep, err := StartReplica(follower, fastReplicaOptions(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()

	waitFor(t, 30*time.Second, "bootstrap catch-up", func() bool {
		return follower.LastSeq() == primary.LastSeq()
	})
	assertCorporaEquivalent(t, follower.Corpus(), primary.Corpus(), probes)

	// Live tailing: new writes stream to the connected follower.
	for i := 20; i < 24; i++ {
		mustAdd(t, primary.Corpus(), testModel(i))
	}
	mustRemove(t, primary.Corpus(), testModel(21).ID)
	waitFor(t, 30*time.Second, "live tail catch-up", func() bool {
		return follower.LastSeq() == primary.LastSeq()
	})
	assertCorporaEquivalent(t, follower.Corpus(), primary.Corpus(), probes)

	st := rep.Status()
	if st.Role != "follower" || !st.Connected {
		t.Fatalf("status = %+v, want connected follower", st)
	}
	if st.LagRecords != 0 {
		t.Fatalf("caught-up follower reports lag %d", st.LagRecords)
	}
}

// TestReplicaCrashMidApplyResumesFromDurableSeq: a follower that crashes
// mid-apply — its WAL ends in a torn batch tail — reopens, drops the
// torn tail, and resumes replication from its durable seq.
func TestReplicaCrashMidApplyResumesFromDurableSeq(t *testing.T) {
	primary := mustOpen(t, t.TempDir(), testOptions())
	defer primary.Close()
	probes := replicationWorkload(t, primary, 5)
	tb, err := primary.ReadTail(context.Background(), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBoundaries(t, tb.Frames)
	k := 3 // records applied before the crash

	fdir := t.TempDir()
	fopts := testOptions()
	fopts.NoSnapshotOnClose = true // crash: no graceful shutdown snapshot
	follower := mustOpen(t, fdir, fopts)
	r := harnessReplica(t, follower)
	if err := r.applyFrames(tb.Frames[:bounds[k]], 0); err != nil {
		t.Fatal(err)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash mid-batch: the next chunk's bytes were partially
	// written to the follower's own WAL when power failed.
	segs, err := filepath.Glob(filepath.Join(fdir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no follower segments: %v", err)
	}
	sort.Strings(segs)
	torn := tb.Frames[bounds[k] : bounds[k]+(bounds[k+1]-bounds[k])/2]
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Reopen: recovery drops the torn tail; the durable seq is still k.
	reopened := mustOpen(t, fdir, fopts)
	defer reopened.Close()
	if got := reopened.LastSeq(); got != uint64(k) {
		t.Fatalf("reopened follower durable seq %d, want %d", got, k)
	}
	// The pull loop re-reads the durable seq each attempt, so resuming is
	// just another apply from LastSeq.
	r2 := harnessReplica(t, reopened)
	if err := r2.applyFrames(tb.Frames[bounds[k]:], reopened.LastSeq()); err != nil {
		t.Fatal(err)
	}
	assertCorporaEquivalent(t, reopened.Corpus(), primary.Corpus(), probes)
}

// TestReplicaCompactedHorizonResyncsFromSnapshot: a follower that starts
// below the primary's compaction horizon is answered 410, bootstraps
// from the snapshot image, then tails the remaining records.
func TestReplicaCompactedHorizonResyncsFromSnapshot(t *testing.T) {
	primary, ts := newReplicationPrimary(t)
	probes := replicationWorkload(t, primary, 6)
	if err := primary.Snapshot(); err != nil { // raises the horizon past seq 0
		t.Fatal(err)
	}
	mustAdd(t, primary.Corpus(), testModel(30))
	mustAdd(t, primary.Corpus(), testModel(31))

	follower := mustOpen(t, t.TempDir(), testOptions())
	defer follower.Close()
	rep, err := StartReplica(follower, fastReplicaOptions(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()

	waitFor(t, 30*time.Second, "snapshot resync + tail", func() bool {
		return follower.LastSeq() == primary.LastSeq()
	})
	assertCorporaEquivalent(t, follower.Corpus(), primary.Corpus(), probes)
	if st := rep.Status(); st.SnapshotResyncs == 0 {
		t.Fatalf("status = %+v, want at least one snapshot resync", st)
	}
}

// TestReplicaPrimaryKillPromote: kill the primary's endpoint, verify the
// follower keeps serving reads (read-only, with status degraded), then
// promote it and verify it serves the primary's last acknowledged state
// byte-identically — and accepts writes again.
func TestReplicaPrimaryKillPromote(t *testing.T) {
	primary, ts := newReplicationPrimary(t)
	probes := replicationWorkload(t, primary, 6)

	follower := mustOpen(t, t.TempDir(), testOptions())
	defer follower.Close()
	rep, err := StartReplica(follower, fastReplicaOptions(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	waitFor(t, 30*time.Second, "catch-up before kill", func() bool {
		return follower.LastSeq() == primary.LastSeq()
	})

	ts.Close() // the primary is gone

	// Degraded but serving: reads answer, mutations are refused, status
	// reports the disconnect.
	if res, err := follower.Corpus().Search(probes[0], corpus.SearchOptions{TopK: -1}); err != nil || len(res) == 0 {
		t.Fatalf("disconnected follower stopped serving reads: %d hits, err %v", len(res), err)
	}
	if _, err := follower.Corpus().Add(testModel(40)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower add: err = %v, want ErrReadOnly", err)
	}
	waitFor(t, 30*time.Second, "disconnect noticed", func() bool {
		st := rep.Status()
		return !st.Connected && st.LastError != ""
	})

	// Promote: the follower becomes a primary serving exactly the old
	// primary's last acknowledged state.
	rep.Promote()
	if st := rep.Status(); st.Role != "primary" {
		t.Fatalf("promoted role = %q", st.Role)
	}
	assertCorporaEquivalent(t, follower.Corpus(), primary.Corpus(), probes)
	// Writes flow again, numbered after the last applied record.
	seqBefore := follower.LastSeq()
	mustAdd(t, follower.Corpus(), testModel(41))
	if follower.LastSeq() <= seqBefore {
		t.Fatal("promoted follower's writes did not advance the log")
	}
}

// TestReplicaOversizedFrameReplicates: a single WAL frame far larger
// than the follower's MaxBatchBytes — larger, in particular, than the
// 2*MaxBatchBytes+64KiB cap an earlier revision read the body through —
// must still replicate. A cap below the largest shippable frame
// silently truncated the body, the apply saw a torn frame, and the loop
// re-requested the same seq forever: replication permanently wedged on
// one oversized model.
func TestReplicaOversizedFrameReplicates(t *testing.T) {
	primary, ts := newReplicationPrimary(t)
	big := biomodels.Generate(biomodels.Config{
		ID: "mbig", Nodes: 200, Edges: 300, Seed: 99, VocabularySize: 400, Decorate: true,
	})
	mustAdd(t, primary.Corpus(), big)
	small := testModel(1)
	mustAdd(t, primary.Corpus(), small)

	const maxBatch = 4096
	// Pin the test's premise: the big model's frame alone exceeds the old
	// revision's truncation point, so this convergence genuinely exercises
	// the protocol-maximum read cap.
	tb, err := primary.ReadTail(context.Background(), 0, maxBatch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if oldCap := int64(maxBatch)*2 + (64 << 10); int64(len(tb.Frames)) <= oldCap {
		t.Fatalf("big frame is %d bytes, need > %d for this test to bite", len(tb.Frames), oldCap)
	}

	follower := mustOpen(t, t.TempDir(), testOptions())
	defer follower.Close()
	opts := fastReplicaOptions(ts.URL)
	opts.MaxBatchBytes = maxBatch
	rep, err := StartReplica(follower, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	waitFor(t, 30*time.Second, "oversized-frame catch-up", func() bool {
		return follower.LastSeq() == primary.LastSeq()
	})
	assertCorporaEquivalent(t, follower.Corpus(), primary.Corpus(), []*sbml.Model{big, small})
}

// TestReplicaRefusesForeignCluster: a follower re-pointed at an
// unrelated primary whose sequence numbers overlap must not apply a
// single record — overlapping seqs from a different history would merge
// silently otherwise.
func TestReplicaRefusesForeignCluster(t *testing.T) {
	primaryA, tsA := newReplicationPrimary(t)
	probes := replicationWorkload(t, primaryA, 4)

	follower := mustOpen(t, t.TempDir(), testOptions())
	defer follower.Close()
	rep, err := StartReplica(follower, fastReplicaOptions(tsA.URL))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "catch-up from cluster A", func() bool {
		return follower.LastSeq() == primaryA.LastSeq()
	})
	rep.Stop()

	// An unrelated primary, with more records so its feed would ship
	// frames whose seqs continue right where the follower stopped.
	primaryB, tsB := newReplicationPrimary(t)
	for i := 0; i < 10; i++ {
		mustAdd(t, primaryB.Corpus(), testModel(50+i))
	}

	seqBefore := follower.LastSeq()
	rep2, err := StartReplica(follower, fastReplicaOptions(tsB.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Stop()
	waitFor(t, 30*time.Second, "cluster mismatch surfaced", func() bool {
		return strings.Contains(rep2.Status().LastError, "cluster mismatch")
	})
	if got := follower.LastSeq(); got != seqBefore {
		t.Fatalf("foreign primary advanced the follower from seq %d to %d", seqBefore, got)
	}
	assertCorporaEquivalent(t, follower.Corpus(), primaryA.Corpus(), probes)
}

// TestReplicaRefusesStaleEpochPrimary: after a failover, a follower of
// the promoted line must refuse the dead pre-failover primary should it
// come back — same cluster, older epoch, diverged history.
func TestReplicaRefusesStaleEpochPrimary(t *testing.T) {
	primaryA, tsA := newReplicationPrimary(t)
	replicationWorkload(t, primaryA, 4)

	// F follows A, adopting A's identity at epoch 1, then is promoted —
	// which durably bumps the cluster to epoch 2.
	f := mustOpen(t, t.TempDir(), testOptions())
	defer f.Close()
	repF, err := StartReplica(f, fastReplicaOptions(tsA.URL))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "F catches up", func() bool {
		return f.LastSeq() == primaryA.LastSeq()
	})
	if err := repF.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	clusterA, _ := primaryA.ReplicationIdentity()
	if id, epoch := f.ReplicationIdentity(); id != clusterA || epoch != 2 {
		t.Fatalf("promoted identity %q/%d, want %q/2", id, epoch, clusterA)
	}

	// G follows promoted F, learning epoch 2.
	muxF := http.NewServeMux()
	muxF.HandleFunc("GET /v1/replicate", f.ServeReplicate)
	muxF.HandleFunc("GET /v1/replicate/snapshot", f.ServeReplicateSnapshot)
	tsF := httptest.NewServer(muxF)
	defer tsF.Close()
	g := mustOpen(t, t.TempDir(), testOptions())
	defer g.Close()
	repG, err := StartReplica(g, fastReplicaOptions(tsF.URL))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "G catches up from F", func() bool {
		return g.LastSeq() == f.LastSeq()
	})
	repG.Stop()
	if _, epoch := g.ReplicationIdentity(); epoch != 2 {
		t.Fatalf("G observed epoch %d, want 2", epoch)
	}

	// The dead primary A comes back (still epoch 1) with fresh writes; G
	// pointed at it must refuse every frame.
	mustAdd(t, primaryA.Corpus(), testModel(70))
	seqBefore := g.LastSeq()
	repG2, err := StartReplica(g, fastReplicaOptions(tsA.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer repG2.Stop()
	waitFor(t, 30*time.Second, "stale epoch surfaced", func() bool {
		return strings.Contains(repG2.Status().LastError, "epoch")
	})
	if got := g.LastSeq(); got != seqBefore {
		t.Fatalf("stale primary advanced G from seq %d to %d", seqBefore, got)
	}
}

// TestReplicaBackoffAndReconnectCount: a primary that fails its first
// few feed requests forces the backoff path; once it recovers, the
// follower reconnects, counts the transition, and converges.
func TestReplicaBackoffAndReconnectCount(t *testing.T) {
	primary := mustOpen(t, t.TempDir(), testOptions())
	defer primary.Close()
	probes := replicationWorkload(t, primary, 4)

	var failures int
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replicate", func(w http.ResponseWriter, r *http.Request) {
		if failures < 3 {
			failures++
			http.Error(w, "transient outage", http.StatusServiceUnavailable)
			return
		}
		primary.ServeReplicate(w, r)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	follower := mustOpen(t, t.TempDir(), testOptions())
	defer follower.Close()
	rep, err := StartReplica(follower, fastReplicaOptions(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()

	waitFor(t, 30*time.Second, "convergence after outage", func() bool {
		return follower.LastSeq() == primary.LastSeq()
	})
	assertCorporaEquivalent(t, follower.Corpus(), primary.Corpus(), probes)
	st := rep.Status()
	if st.Reconnects == 0 {
		t.Fatalf("status = %+v, want a counted reconnect", st)
	}
	if failures < 3 {
		t.Fatalf("outage handler only saw %d requests", failures)
	}
}
