package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"sbmlcompose/internal/api"
)

// This file implements the follower side of replication: a Replica owns
// a read-only Store and keeps it converged with a primary by pulling the
// WAL feed (tail.go), verifying every frame with the WAL's own CRC and
// decode checks, and applying verified chunks under the same trust rule
// for persisted match keys recovery uses (recover.go). Applied records
// keep the primary's sequence numbers and land in the follower's own WAL
// through one AppendBatch per chunk (one fsync per received batch), so
// the follower's durable log is at all times a prefix of the primary's
// acknowledged log — which is exactly what makes promotion safe and a
// crashed follower's restart resume from its own durable seq.
//
// Failure handling is the design center:
//
//   - A connection cut mid-stream leaves a verified prefix, which is
//     applied; the next request resumes from the new durable seq.
//   - A corrupt frame (bit flip anywhere en route) fails its CRC or
//     decode; the prefix before it is applied, the rest of the chunk is
//     discarded, and the follower reconnects and re-requests. A corrupt
//     record is never applied.
//   - A primary that compacted past the follower's position answers 410
//     "compacted"; the follower fetches a full snapshot image and
//     resynchronizes through ApplySnapshotImage.
//   - An unreachable primary costs capped exponential backoff with
//     jitter; the follower keeps serving reads the whole time, with its
//     lag observable through Status.

// ReplicaOptions configures StartReplica.
type ReplicaOptions struct {
	// PrimaryURL is the primary server's base URL (e.g.
	// "http://10.0.0.1:8080"); the replica appends /v1/replicate paths.
	PrimaryURL string
	// Client is the HTTP client used for feed requests; nil means a
	// default client (no global timeout — long-polls need to linger;
	// every request still carries a per-attempt deadline).
	Client *http.Client
	// MaxBatchBytes caps one fetched chunk; 0 defaults to 1 MiB.
	MaxBatchBytes int
	// PollWait is the long-poll wait requested at the tip; 0 defaults to
	// 10s.
	PollWait time.Duration
	// MinBackoff and MaxBackoff bound the capped exponential backoff
	// (with jitter) between failed attempts; they default to 100ms and 5s.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Metrics, when non-nil, receives replication instrumentation
	// (metrics.go); nil costs nothing.
	Metrics *ReplicaMetrics
}

func (o ReplicaOptions) withDefaults() (ReplicaOptions, error) {
	if o.PrimaryURL == "" {
		return o, fmt.Errorf("store: replica requires a primary URL")
	}
	o.PrimaryURL = strings.TrimRight(o.PrimaryURL, "/")
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.MaxBatchBytes <= 0 {
		o.MaxBatchBytes = 1 << 20
	}
	if o.PollWait <= 0 {
		o.PollWait = 10 * time.Second
	}
	if o.MinBackoff <= 0 {
		o.MinBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.MaxBackoff < o.MinBackoff {
		o.MaxBackoff = o.MinBackoff
	}
	return o, nil
}

// ReplicaStatus is a point-in-time view of a replica for health
// reporting.
type ReplicaStatus struct {
	// Role is "follower" until Promote, then "primary".
	Role string `json:"role"`
	// PrimaryURL is the primary this replica follows (or followed).
	PrimaryURL string `json:"primary_url"`
	// LastAppliedSeq is the highest primary sequence number durably
	// applied locally; PrimaryAckedSeq is the primary's acknowledged
	// watermark as of the last successful contact, and LagRecords their
	// difference — the staleness bound for reads served right now.
	LastAppliedSeq  uint64 `json:"last_applied_seq"`
	PrimaryAckedSeq uint64 `json:"primary_acked_seq"`
	LagRecords      uint64 `json:"replication_lag_records"`
	// LagBytes is the primary's estimate (shipped with each feed
	// response) of acknowledged WAL bytes not yet delivered to this
	// follower — an upper bound: it can include a not-yet-acknowledged
	// group-commit tail, and like PrimaryAckedSeq it is last-contact
	// data, frozen while the primary is unreachable. 0 when caught up.
	LagBytes uint64 `json:"replication_lag_bytes"`
	// SecondsSinceLastApply is the age of the last applied record batch
	// (or of replica start, before any apply); SecondsSinceLastContact
	// the age of the last successful primary contact. Unlike the lag
	// fields these keep growing while the primary is unreachable, which
	// makes them the staleness signal to alert on — read together with
	// LagRecords, since an idle-but-connected feed also ages the apply
	// clock.
	SecondsSinceLastApply   float64 `json:"seconds_since_last_apply"`
	SecondsSinceLastContact float64 `json:"seconds_since_last_contact"`
	// Connected reports that the most recent feed request succeeded;
	// Reconnects counts how many times contact was re-established after
	// at least one failure.
	Connected  bool   `json:"connected"`
	Reconnects uint64 `json:"reconnects"`
	// LastError is the most recent fetch or apply failure (empty when
	// healthy); LastContact is when the primary last answered.
	LastError   string    `json:"last_error,omitempty"`
	LastContact time.Time `json:"last_contact,omitempty"`
	// SnapshotResyncs counts bootstraps through a full snapshot image
	// (the compacted-horizon path).
	SnapshotResyncs uint64 `json:"snapshot_resyncs,omitempty"`
	// ClusterID and Epoch are the replication identity adopted from the
	// primary (identity.go): the cluster whose history this store holds
	// and the highest promotion epoch it has observed. Empty/zero until
	// first contact.
	ClusterID string `json:"cluster_id,omitempty"`
	Epoch     uint64 `json:"epoch,omitempty"`
}

// Replica keeps a read-only Store converged with a primary's WAL feed.
// Create one with StartReplica; Stop halts replication (the store stays
// read-only), Promote halts it and lifts the read-only gate.
type Replica struct {
	s      *Store
	opts   ReplicaOptions
	cancel context.CancelFunc
	done   chan struct{}

	mu          sync.Mutex
	st          ReplicaStatus
	failedSince bool // a failure happened since the last success
	stopped     bool
	// lastApply is when the last chunk (or snapshot image) landed;
	// initialized to the start time so the staleness clock ticks from
	// the replica's birth even before first contact.
	lastApply time.Time
}

// errFeedCompacted is the fetch loop's internal signal that the primary
// answered 410: resync from a snapshot image.
var errFeedCompacted = errors.New("feed compacted")

// StartReplica puts s into read-only follower mode and starts pulling
// primary's replication feed. s must not have local writers: every
// mutation through its corpus now fails with ErrReadOnly until Promote.
// The returned Replica's Status feeds /healthz; Stop or Promote must be
// called before closing the store.
func StartReplica(s *Store, opts ReplicaOptions) (*Replica, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	s.readOnly.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replica{
		s:      s,
		opts:   opts,
		cancel: cancel,
		done:   make(chan struct{}),
		st: ReplicaStatus{
			Role:            "follower",
			PrimaryURL:      opts.PrimaryURL,
			LastAppliedSeq:  s.LastSeq(),
			PrimaryAckedSeq: s.LastSeq(),
		},
		lastApply: time.Now(),
	}
	go r.run(ctx)
	return r, nil
}

// Status returns the replica's current health view.
func (r *Replica) Status() ReplicaStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.st
	st.LastAppliedSeq = r.s.LastSeq()
	st.ClusterID, st.Epoch = r.s.ReplicationIdentity()
	if st.PrimaryAckedSeq > st.LastAppliedSeq {
		st.LagRecords = st.PrimaryAckedSeq - st.LastAppliedSeq
	} else {
		st.LagRecords = 0
		st.LagBytes = 0
	}
	st.SecondsSinceLastApply = time.Since(r.lastApply).Seconds()
	contact := r.lastApply
	if !r.st.LastContact.IsZero() {
		contact = r.st.LastContact
	}
	st.SecondsSinceLastContact = time.Since(contact).Seconds()
	return st
}

// Stop halts replication and waits for the puller to exit. The store
// remains read-only: a stopped follower serves stale reads but accepts
// no writes. Safe to call more than once.
func (r *Replica) Stop() {
	r.mu.Lock()
	already := r.stopped
	r.stopped = true
	r.mu.Unlock()
	r.cancel()
	<-r.done
	if already {
		return
	}
}

// Promote stops replication and lifts the read-only gate: the store
// becomes a primary, accepting local mutations numbered after the last
// applied record. Because the follower's log is a prefix of the old
// primary's acknowledged log, a promoted follower serves exactly the
// primary's last acknowledged state.
//
// Promotion durably increments the cluster's epoch, so followers that
// re-attach here outrank — and will refuse — the dead primary should it
// come back with its unreplicated tail. Promotion itself always
// succeeds; a non-nil error reports that the epoch bump could not be
// persisted (the stale-primary guard is weakened until the disk heals).
func (r *Replica) Promote() error {
	r.Stop()
	_, err := r.s.bumpEpoch()
	r.s.readOnly.Store(false)
	r.mu.Lock()
	r.st.Role = "primary"
	r.st.Connected = false
	r.mu.Unlock()
	return err
}

// run is the pull loop: fetch, verify, apply, repeat; back off on any
// failure, resync from a snapshot when the primary's horizon passed us.
func (r *Replica) run(ctx context.Context) {
	defer close(r.done)
	backoff := api.Backoff{Min: r.opts.MinBackoff, Max: r.opts.MaxBackoff}
	for ctx.Err() == nil {
		err := r.pullOnce(ctx)
		if err == nil {
			backoff.Reset()
			continue
		}
		if ctx.Err() != nil {
			return
		}
		if errors.Is(err, errFeedCompacted) {
			if rerr := r.resync(ctx); rerr == nil {
				backoff.Reset()
				continue
			} else if ctx.Err() == nil {
				r.noteFailure(rerr)
			}
		} else {
			r.noteFailure(err)
		}
		if backoff.Wait(ctx) != nil {
			return
		}
	}
}

// noteFailure records a failed attempt in the status.
func (r *Replica) noteFailure(err error) {
	r.mu.Lock()
	r.st.Connected = false
	r.st.LastError = err.Error()
	r.failedSince = true
	r.mu.Unlock()
}

// noteSuccess records a successful contact: the primary's acknowledged
// watermark and its estimate of the bytes still owed to this follower.
func (r *Replica) noteSuccess(acked, lagBytes uint64) {
	r.mu.Lock()
	r.st.Connected = true
	r.st.LastError = ""
	r.st.LastContact = time.Now()
	if acked > r.st.PrimaryAckedSeq {
		r.st.PrimaryAckedSeq = acked
	}
	r.st.LagBytes = lagBytes
	if r.failedSince {
		r.failedSince = false
		r.st.Reconnects++
		if m := r.opts.Metrics; m != nil {
			m.Reconnects.Inc()
		}
	}
	r.mu.Unlock()
}

// pullOnce performs one feed request from the store's durable position
// and applies what it can. The durable seq is re-read every attempt —
// never cached across failures — so a crash-recovered or partially
// applied store always resumes from truth.
func (r *Replica) pullOnce(ctx context.Context) error {
	from := r.s.LastSeq()
	fetchStart := time.Now()
	waitMS := int(r.opts.PollWait / time.Millisecond)
	url := fmt.Sprintf("%s/v1/replicate?from=%d&max_bytes=%d&wait_ms=%d",
		r.opts.PrimaryURL, from, r.opts.MaxBatchBytes, waitMS)
	// The attempt deadline covers the long-poll plus margin, so a dead
	// TCP connection cannot wedge the loop past one cycle.
	rctx, rcancel := context.WithTimeout(ctx, r.opts.PollWait+15*time.Second)
	defer rcancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return fmt.Errorf("replicate fetch: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return errFeedCompacted
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("replicate fetch: primary answered %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	// Verify the primary's identity before applying a single frame: an
	// unrelated cluster or a stale pre-failover epoch must not contribute
	// records, however plausible its sequence numbers look.
	if err := r.verifyIdentity(resp.Header); err != nil {
		return err
	}
	acked, _ := strconv.ParseUint(resp.Header.Get(hdrReplicationAcked), 10, 64)
	lagBytes, _ := strconv.ParseUint(resp.Header.Get(hdrReplicationLagBytes), 10, 64)
	// Size the read cap to the protocol's true maximum — one chunk is at
	// most max_bytes of frames plus a single frame, and a frame payload is
	// bounded by walMaxRecord — never to a guess. A cap below the largest
	// shippable frame would truncate an oversized model's body silently
	// (ReadAll through a LimitReader returns nil error at the limit), and
	// the apply would see a torn frame, ship nothing, and re-request the
	// same seq forever: replication permanently wedged on one record.
	limit := int64(r.opts.MaxBatchBytes) + walMaxRecord + walFrameLen
	frames, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		// A cut mid-body still delivered a (possibly empty) prefix; verify
		// and apply what survived before reporting the cut. (The feed's
		// explicit Content-Length makes the cut visible here as
		// io.ErrUnexpectedEOF rather than a silently short body.)
		if aerr := r.applyFrames(frames, from); aerr != nil {
			return fmt.Errorf("replicate fetch: %v (and apply of prefix: %w)", err, aerr)
		}
		return fmt.Errorf("replicate fetch: read body: %w", err)
	}
	if int64(len(frames)) > limit {
		// No well-behaved primary can exceed the protocol maximum; apply
		// nothing and say so rather than silently retrying a truncation.
		return fmt.Errorf("replicate fetch: body exceeds the %d-byte protocol maximum; refusing truncated chunk", limit)
	}
	if m := r.opts.Metrics; m != nil && len(frames) > 0 {
		m.FetchSeconds.Observe(time.Since(fetchStart).Seconds())
	}
	r.noteSuccess(acked, lagBytes)
	return r.applyFrames(frames, from)
}

// verifyIdentity checks a feed response's cluster ID and promotion
// epoch against the store's persisted identity (adopting them on first
// contact) before anything from the response is applied. A primary from
// a different cluster, or one announcing an epoch older than this store
// has already observed (the dead pre-failover primary coming back),
// is refused — its history has diverged from ours even where the
// sequence numbers overlap.
func (r *Replica) verifyIdentity(h http.Header) error {
	clusterID := h.Get(hdrReplicationCluster)
	epoch, _ := strconv.ParseUint(h.Get(hdrReplicationEpoch), 10, 64)
	if err := r.s.adoptIdentity(clusterID, epoch); err != nil {
		return fmt.Errorf("replicate fetch: %w", err)
	}
	return nil
}

// applyFrames verifies a received chunk (verifyChunk) and applies the
// verified prefix as one batch. Trailing damage discards everything from
// the first bad frame and returns an error; the loop then re-requests from
// the new durable seq. Nothing at or past a bad frame is ever applied.
func (r *Replica) applyFrames(frames []byte, from uint64) error {
	verifyStart := time.Now()
	recs, _, damaged := verifyChunk(frames, from)
	if m := r.opts.Metrics; m != nil && len(frames) > 0 {
		m.VerifySeconds.Observe(time.Since(verifyStart).Seconds())
	}
	if err := r.applyRecords(recs); err != nil {
		return err
	}
	return damaged
}

// verifyChunk checks a received chunk frame by frame — CRC and decode,
// recovery's exact checks, plus strictly increasing seqs above from — and
// returns the records of the verified prefix, the offset just past it,
// and, when the prefix stops short of the chunk, what stopped it: a torn
// frame from a cut, a CRC mismatch from a flipped bit, or a regressed seq.
func verifyChunk(frames []byte, from uint64) ([]walRecord, int64, error) {
	var recs []walRecord
	off, size := int64(0), int64(len(frames))
	prev := from
	for off < size {
		payload, end, ok := nextFrame(frames, off)
		if !ok {
			return recs, off, fmt.Errorf("apply: torn or corrupt frame at offset %d of %d", off, size)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return recs, off, fmt.Errorf("apply: undecodable record at offset %d: %w", off, err)
		}
		if rec.seq <= prev {
			// A primary never ships non-monotone seqs; treat it like
			// corruption and refuse everything from here on.
			return recs, off, fmt.Errorf("apply: sequence regressed %d -> %d at offset %d", prev, rec.seq, off)
		}
		recs = append(recs, rec)
		prev, off = rec.seq, end
	}
	return recs, off, nil
}

// applyRecords converts the chunk to batch ops (batchOps, recover.go) —
// keyed records from a primary with the same match options install
// without parsing — and applies them through corpus.ApplyBatch:
// validation and the WAL append (one fsync) happen under every shard's
// write lock, then the mutations become visible in order.
func (r *Replica) applyRecords(recs []walRecord) error {
	if len(recs) == 0 {
		return nil
	}
	applyStart := time.Now()
	ops, _, err := r.s.batchOps(recs)
	if err != nil {
		return fmt.Errorf("apply %w", err)
	}
	if err := r.s.c.ApplyBatch(ops); err != nil {
		return err
	}
	if m := r.opts.Metrics; m != nil {
		m.ApplySeconds.Observe(time.Since(applyStart).Seconds())
	}
	r.mu.Lock()
	r.st.LastAppliedSeq = recs[len(recs)-1].seq
	r.lastApply = time.Now()
	r.mu.Unlock()
	return nil
}

// resync bootstraps from a full snapshot image — the compacted-horizon
// path. On success the local store's durable and in-memory state equal
// the primary's snapshotted state and the next pull resumes from its seq.
func (r *Replica) resync(ctx context.Context) error {
	rctx, rcancel := context.WithTimeout(ctx, 2*time.Minute)
	defer rcancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, r.opts.PrimaryURL+"/v1/replicate/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return fmt.Errorf("snapshot resync: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("snapshot resync: primary answered %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := r.verifyIdentity(resp.Header); err != nil {
		return err
	}
	image, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("snapshot resync: read image: %w", err)
	}
	// ApplySnapshotImage re-validates everything (magic, CRCs, seq
	// advance); a truncated or corrupted image is rejected whole and the
	// local state is untouched.
	if err := r.s.ApplySnapshotImage(image); err != nil {
		return err
	}
	seq, _ := strconv.ParseUint(resp.Header.Get(hdrReplicationSnapSeq), 10, 64)
	r.noteSuccess(seq, 0)
	if m := r.opts.Metrics; m != nil {
		m.SnapshotResyncs.Inc()
	}
	r.mu.Lock()
	r.st.SnapshotResyncs++
	r.st.LastAppliedSeq = r.s.LastSeq()
	r.lastApply = time.Now()
	r.mu.Unlock()
	return nil
}
