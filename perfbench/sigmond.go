package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"easig/internal/stream"
)

// Replay shape: sigmon -replay's defaults for the batch, streams 0..N-1.
const (
	rateWindow    = 500 * time.Millisecond
	queueSample   = 5 * time.Millisecond
	replayStreams = 64
	replayTicks   = 2000
	replayBatch   = 256
	setupRepeats  = 5
)

// sigmondCfg is sigmond's command-line default configuration.
func sigmondCfg() stream.Config {
	return stream.Config{Shards: 4, MaxStreams: 4096, QueueBatches: 64, Policy: stream.PolicyBlock}
}

// replayPayloads generates the EASB request bodies for the replay:
// seeded nominal arrestment traces, two bit-flips on every odd stream,
// samples interleaved round-robin by tick over the client's streams and
// cut into replayBatch-record requests. The first sample of every
// stream carries FlagReset, so replaying the list again starts a fresh
// session on the same monitors. Client c owns a contiguous half of the
// stream IDs, so per-stream order survives concurrent clients.
func replayPayloads(seed int64, clients int) ([][][]byte, [][]int, error) {
	bySeed := map[int64][]stream.TraceRow{}
	traces := make([][]stream.TraceRow, replayStreams)
	for id := range traces {
		s := seed + int64(id%3)
		rows, ok := bySeed[s]
		if !ok {
			var err error
			if rows, err = stream.NominalTrace(replayTicks, 14000, 55, s); err != nil {
				return nil, nil, err
			}
			bySeed[s] = rows
		}
		if id%2 == 1 {
			rows = stream.FlipBit(rows, (100+17*id)%replayTicks, id%stream.NumSignals, 15)
			rows = stream.FlipBit(rows, (replayTicks/2+31*id)%replayTicks, (id+3)%stream.NumSignals, 14)
		}
		traces[id] = rows
	}
	payloads := make([][][]byte, clients)
	samples := make([][]int, clients)
	per := replayStreams / clients
	for c := 0; c < clients; c++ {
		lo, hi := c*per, (c+1)*per
		if c == clients-1 {
			hi = replayStreams
		}
		recs := make([]stream.Record, 0, replayBatch)
		flush := func() {
			if len(recs) > 0 {
				payloads[c] = append(payloads[c], stream.AppendBatch(nil, recs))
				samples[c] = append(samples[c], len(recs))
				recs = recs[:0]
			}
		}
		for i := 0; i < replayTicks; i++ {
			for id := lo; id < hi; id++ {
				rec := stream.Record{Stream: uint32(id), Tick: traces[id][i].Tick, Values: traces[id][i].Values}
				if i == 0 {
					rec.Flags = stream.FlagReset
				}
				recs = append(recs, rec)
				if len(recs) == replayBatch {
					flush()
				}
			}
		}
		flush()
	}
	return payloads, samples, nil
}

// server is an in-process sigmond: a stream.Service behind a loopback
// HTTP listener.
type server struct {
	svc  *stream.Service
	hs   *http.Server
	url  string
	done chan error
}

func startServer() (*server, error) {
	svc, err := stream.New(sigmondCfg())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{svc: svc, hs: &http.Server{Handler: svc.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for Serve to return and closes
// the service.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if cerr := s.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// replaySetup is everything before the first sample can be sent:
// traces, request bodies, the service and its listener, checked ready
// by one health round trip.
type replaySetup struct {
	payloads [][][]byte
	samples  [][]int
	srv      *server
}

func setupReplay(seed int64, clients int, hc *http.Client) (*replaySetup, error) {
	payloads, samples, err := replayPayloads(seed, clients)
	if err != nil {
		return nil, err
	}
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	resp, err := hc.Get(srv.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		srv.stop()
		return nil, err
	}
	return &replaySetup{payloads: payloads, samples: samples, srv: srv}, nil
}

// replayOut is the outcome of one closed-loop replay.
type replayOut struct {
	sent       [][]int         // per client: indices of the payloads sent, in order
	ok         [][]bool        // per client: whether each request succeeded
	latencies  []time.Duration // every request's round trip
	attempted  int             // samples sent
	failed     int             // samples in failed requests, dropped, or of diverging streams
	flush      time.Duration
	metrics    stream.Metrics
	queueMax   int
	divergent  int           // streams whose detections differ from stream.Inline
	detections int           // detection lines
	wall, cpu  time.Duration // the clients' closed loop
	rates      []float64     // samples per second in each rateWindow
	cpuPerOp   []float64     // process CPU µs per sample in each rateWindow
	ingestNs   float64       // traced only: direct Service.Ingest per sample
}

// post sends one request body and returns how many samples the service
// accepted and dropped.
func post(hc *http.Client, url string, body []byte) (accepted, dropped int, err error) {
	resp, err := hc.Post(url+"/api/v1/ingest", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, 0, fmt.Errorf("ingest: %s: %s", resp.Status, msg)
	}
	var ack stream.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return 0, 0, err
	}
	return ack.Accepted, ack.Dropped, nil
}

// replay drives the server with one closed-loop client per payload
// list for dur, then flushes and checks the service's detections
// against stream.Inline fed the same requests. watchQueue samples the
// shard queue depths while the clients run.
func replay(st *replaySetup, hc *http.Client, dur time.Duration, watchQueue bool) (*replayOut, error) {
	clients := len(st.payloads)
	out := &replayOut{sent: make([][]int, clients), ok: make([][]bool, clients)}
	lats := make([][]time.Duration, clients)
	failedSamples := make([]int, clients)
	deadline := time.Now().Add(dur)

	// The sampler cuts the closed loop into rateWindow windows: per-window
	// rates let the run report medians, which a burst of host noise in
	// one window does not move. When traced it also samples the shard
	// queue depths every queueSample.
	var accepted atomic.Int64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		period := rateWindow
		if watchQueue {
			period = queueSample
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		t, cpu, n := time.Now(), processCPU(), accepted.Load()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				if watchQueue {
					for _, sh := range st.srv.svc.Metrics().PerShard {
						if sh.QueueDepth > out.queueMax {
							out.queueMax = sh.QueueDepth
						}
					}
				}
				if now.Sub(t) < rateWindow-period/2 {
					continue
				}
				c, m := processCPU(), accepted.Load()
				if m > n {
					out.rates = append(out.rates, float64(m-n)/now.Sub(t).Seconds())
					out.cpuPerOp = append(out.cpuPerOp, float64((c-cpu).Nanoseconds())/1e3/float64(m-n))
				}
				t, cpu, n = now, c, m
			}
		}
	}()

	began, cpu0 := time.Now(), processCPU()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			list := st.payloads[c]
			for i := 0; time.Now().Before(deadline); i++ {
				pi := i % len(list)
				t0 := time.Now()
				acc, drop, err := post(hc, st.srv.url, list[pi])
				lats[c] = append(lats[c], time.Since(t0))
				out.sent[c] = append(out.sent[c], pi)
				n := st.samples[c][pi]
				good := err == nil && acc == n && drop == 0
				out.ok[c] = append(out.ok[c], good)
				if good {
					accepted.Add(int64(n))
				} else {
					failedSamples[c] += n
				}
			}
		}(c)
	}
	wg.Wait()
	out.wall, out.cpu = time.Since(began), processCPU()-cpu0
	close(stop)
	sampler.Wait()

	for c := range lats {
		out.latencies = append(out.latencies, lats[c]...)
		out.failed += failedSamples[c]
		for _, pi := range out.sent[c] {
			out.attempted += st.samples[c][pi]
		}
	}

	t0 := time.Now()
	resp, err := hc.Post(st.srv.url+"/api/v1/flush", "", nil)
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	out.flush = time.Since(t0)
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("flush: %s", resp.Status)
	}
	out.metrics = st.srv.svc.Metrics()

	resp, err = hc.Get(st.srv.url + "/api/v1/detections")
	if err != nil {
		return nil, err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}

	want, err := reference(st, out)
	if err != nil {
		return nil, err
	}
	bad := divergentStreams(got, want)
	out.divergent = len(bad)
	out.detections = bytes.Count(stream.CanonicalizeDetections(want), []byte("\n"))
	for c := range out.sent {
		for k, pi := range out.sent[c] {
			if out.ok[c][k] {
				out.failed += badSamples(st.payloads[c][pi], bad)
			}
		}
	}
	return out, nil
}

// reference feeds every request the service accepted to stream.Inline,
// the inline reference observer, and returns its detections. Clients
// own disjoint streams, so each client's requests go to an observer of
// their own, in the order the client sent them, and the observers run
// in parallel; every stream sees its samples in the same order as the
// service did.
func reference(st *replaySetup, out *replayOut) ([]byte, error) {
	dets := make([][]byte, len(out.sent))
	errs := make([]error, len(out.sent))
	var wg sync.WaitGroup
	for c := range out.sent {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			in := stream.NewInline(sigmondCfg().MaxStreams)
			for k, pi := range out.sent[c] {
				if !out.ok[c][k] {
					continue
				}
				if err := in.Ingest(st.payloads[c][pi]); err != nil {
					errs[c] = err
					return
				}
			}
			dets[c], errs[c] = in.Detections()
		}(c)
	}
	wg.Wait()
	var all []byte
	for c := range dets {
		if errs[c] != nil {
			return nil, errs[c]
		}
		all = append(all, dets[c]...)
	}
	return all, nil
}

// divergentStreams returns the stream IDs whose canonical detection
// lines differ between two detection journals.
func divergentStreams(got, want []byte) map[uint32]bool {
	g, w := byStream(stream.CanonicalizeDetections(got)), byStream(stream.CanonicalizeDetections(want))
	bad := map[uint32]bool{}
	for id, lines := range g {
		if !bytes.Equal(lines, w[id]) {
			bad[id] = true
		}
	}
	for id, lines := range w {
		if !bytes.Equal(lines, g[id]) {
			bad[id] = true
		}
	}
	return bad
}

// byStream splits detection lines ("<stream>\t...") by stream ID.
func byStream(b []byte) map[uint32][]byte {
	out := map[uint32][]byte{}
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			break
		}
		line := b[:i+1]
		b = b[i+1:]
		var id uint32
		for _, ch := range line {
			if ch < '0' || ch > '9' {
				break
			}
			id = id*10 + uint32(ch-'0')
		}
		out[id] = append(out[id], line...)
	}
	return out
}

// badSamples counts the samples of payload that belong to streams in
// bad.
func badSamples(payload []byte, bad map[uint32]bool) int {
	if len(bad) == 0 {
		return 0
	}
	n := 0
	for off := stream.HeaderBytes; off+stream.RecordBytes <= len(payload); {
		count := int(payload[off-2])<<8 | int(payload[off-1])
		for k := 0; k < count; k++ {
			rec := payload[off+k*stream.RecordBytes:]
			id := uint32(rec[0])<<24 | uint32(rec[1])<<16 | uint32(rec[2])<<8 | uint32(rec[3])
			if bad[id] {
				n++
			}
		}
		off += count*stream.RecordBytes + stream.HeaderBytes
	}
	return n
}

// newHTTPClient keeps one idle connection per client goroutine.
func newHTTPClient(clients int) *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
	}
}

// sigmondReplay sets up the replay setupRepeats times (keeping the
// last server) and replays for dur.
func sigmondReplay(seed int64, dur time.Duration, tr *tracer) (*replayOut, []time.Duration, error) {
	clients := workers()
	hc := newHTTPClient(clients)
	defer hc.CloseIdleConnections()
	var st *replaySetup
	var setups []time.Duration
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			if err := st.srv.stop(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if st, err = setupReplay(seed, clients, hc); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	sp := tr.begin("stream.replay")
	out, err := replay(st, hc, dur, tr != nil)
	tr.end(sp)
	if serr := st.srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		ns, err := directIngest(st)
		if err != nil {
			return nil, nil, err
		}
		out.ingestNs = ns
	}
	return out, setups, nil
}

// directIngest calls Service.Ingest directly — no HTTP — on a fresh
// service with every request body once, and returns the time per
// sample including the final Flush that waits for the shards.
func directIngest(st *replaySetup) (float64, error) {
	svc, err := stream.New(sigmondCfg())
	if err != nil {
		return 0, err
	}
	samples := 0
	t0 := time.Now()
	for _, list := range st.payloads {
		for _, p := range list {
			acc, _, err := svc.Ingest(p)
			if err != nil {
				svc.Close()
				return 0, err
			}
			samples += acc
		}
	}
	err = svc.Flush()
	d := time.Since(t0)
	if cerr := svc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return float64(d.Nanoseconds()) / float64(samples), nil
}

// runSigmondReplay is the sigmond-replay workload, one op per sample.
func runSigmondReplay(r *run) error {
	dur := time.Duration(r.seconds * float64(time.Second))
	out, setups, err := sigmondReplay(r.seed, dur, r.tr)
	if err != nil {
		return err
	}
	// The loop clock is the clients' closed loop: set-up, the flush and
	// the correctness check are excluded.
	r.loop.wall += out.wall
	r.loop.cpu += out.cpu
	r.rates = append(r.rates, out.rates...)
	r.cpuPerOp = append(r.cpuPerOp, out.cpuPerOp...)
	r.ops += out.attempted
	r.failed += out.failed
	for _, d := range setups {
		r.setup = append(r.setup, secs(d))
	}
	for _, d := range out.latencies {
		r.requests = append(r.requests, msOf(d))
	}
	r.notes = append(r.notes, fmt.Sprintf("sigmond-replay: %d streams, %d clients, %d requests, %d detection lines, %d divergent streams",
		replayStreams, workers(), len(out.latencies), out.detections, out.divergent),
		fmt.Sprintf("ops_per_s and cpu_us_per_op: medians over windows of %v", rateWindow))
	r.streamLayers(out)
	return nil
}
