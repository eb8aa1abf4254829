package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	crossfield "repro"
	"repro/internal/serve"
)

// corruptBlob returns a copy of an archive blob with one byte of the
// named field's stored payload flipped, so any read that verifies the
// payload CRC fails.
func corruptBlob(t *testing.T, blob []byte, field string) []byte {
	t.Helper()
	ar, err := crossfield.OpenArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ar.FieldPayload(field)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.Index(blob, payload)
	if off < 0 {
		t.Fatalf("payload bytes of %q not found in blob", field)
	}
	out := append([]byte(nil), blob...)
	out[off+len(payload)/2] ^= 0x40
	return out
}

// A CRC-mismatched payload must quarantine: the request answers a
// distinct 502 (not 404, not 500), repeat requests keep answering 502
// without re-counting the corruption, and the counter is exported.
func TestCorruptPayloadQuarantinedAs502(t *testing.T) {
	s := serve.New(serve.Config{})
	t.Cleanup(func() { s.Close() })
	if err := s.Mount("bad", corruptBlob(t, sharedArchiveBlob(t), "U")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 2; i++ {
		resp, body := get(t, ts, "/v1/archives/bad/fields/U")
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("GET %d = %d, want 502: %s", i, resp.StatusCode, body)
		}
	}
	_, metrics := get(t, ts, "/metrics")
	if !strings.Contains(string(metrics), "cfserve_corrupt_payload_total 1") {
		t.Fatalf("metrics missing single corrupt-payload count:\n%s", metrics)
	}
}

// fakeRepair implements serve.RemoteChunks and serve.RemoteRepair with a
// canned healthy chunk body, standing in for a cluster peer.
type fakeRepair struct {
	body    []byte
	repairs atomic.Int32
}

func (f *fakeRepair) FetchChunk(_ context.Context, key, archive, field string, chunk, size int) ([]byte, bool) {
	return nil, false
}

func (f *fakeRepair) RepairChunk(_ context.Context, key, archive, field string, chunk, size int) ([]byte, bool) {
	f.repairs.Add(1)
	if len(f.body) != size {
		return nil, false
	}
	return f.body, true
}

// A corrupt local payload with a peer holding an intact copy must repair:
// the chunk request answers 200 with the peer's bytes, the repaired value
// is cached (one repair fetch total), and the repair is counted. A preview
// request repairs too: the peer's full-fidelity chunk satisfies any
// level, so it is served as level "full".
func TestCorruptChunkRepairedFromPeer(t *testing.T) {
	for _, tc := range []struct {
		name, path string
		blob       []byte
	}{
		{"full", "/v1/archives/ds/fields/U/chunks/1", sharedArchiveBlob(t)},
		{"preview", "/v1/archives/ds/fields/U/chunks/1?level=0", sharedProgressiveBlob(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serverFor := func(blob []byte) (*serve.Server, *httptest.Server) {
				s := serve.New(serve.Config{})
				t.Cleanup(func() { s.Close() })
				if err := s.Mount("ds", blob); err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(s.Handler())
				t.Cleanup(ts.Close)
				return s, ts
			}
			_, ref := serverFor(tc.blob)
			refResp, want := get(t, ref, "/v1/archives/ds/fields/U/chunks/1")
			if refResp.StatusCode != http.StatusOK {
				t.Fatalf("reference GET = %d", refResp.StatusCode)
			}

			s, ts := serverFor(corruptBlob(t, tc.blob, "U"))
			fake := &fakeRepair{body: want}
			s.SetRemote(fake)

			resp, got := get(t, ts, tc.path)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("repaired GET = %d: %s", resp.StatusCode, got)
			}
			if lv := resp.Header.Get("X-CFC-Level"); lv != "full" {
				t.Fatalf("repaired X-CFC-Level = %q, want full", lv)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("repaired chunk bytes differ from the healthy copy")
			}
			if n := fake.repairs.Load(); n != 1 {
				t.Fatalf("repair fetches = %d, want 1", n)
			}
			// The repaired value went into the chunk LRU like any decode.
			resp, _ = get(t, ts, tc.path)
			if resp.StatusCode != http.StatusOK || fake.repairs.Load() != 1 {
				t.Fatalf("hot repaired chunk: status %d, repairs %d (want 200, 1)",
					resp.StatusCode, fake.repairs.Load())
			}
			_, metrics := get(t, ts, "/metrics")
			if !strings.Contains(string(metrics), `cfserve_repair_total{outcome="hit"} 1`) {
				t.Fatalf("metrics missing repair hit:\n%s", metrics)
			}
			// Without a repair source the same corruption is a 502.
			if !strings.Contains(string(metrics), "cfserve_corrupt_payload_total 1") {
				t.Fatalf("metrics missing corrupt-payload count:\n%s", metrics)
			}
			// A delta from a repaired preview would XOR against the wrong
			// body, so it answers 502 instead.
			if tc.name == "preview" {
				if resp, body := get(t, ts, "/v1/archives/ds/fields/U/chunks/1/delta?from=0"); resp.StatusCode != http.StatusBadGateway {
					t.Fatalf("delta from a repaired preview = %d, want 502: %s", resp.StatusCode, body)
				}
			}
		})
	}
}

// A client that issues a Range GET and disconnects mid-body must release
// its admission weight once the handler unblocks — a hanging reader may
// not pin decode budget forever. The body (an 8 MiB noise field, far
// larger than the socket buffers) guarantees the handler is stalled in
// the response write when the client walks away.
func TestClientDisconnectReleasesAdmissionWeight(t *testing.T) {
	const n = 128
	data := make([]float32, n*n*n)
	rng := rand.New(rand.NewSource(3))
	for i := range data {
		data[i] = rng.Float32()
	}
	f := crossfield.MustNewField("NOISE", data, n, n, n)
	comp, err := crossfield.CompressBaseline(f, crossfield.Rel(1e-3))
	if err != nil {
		t.Fatal(err)
	}

	// RequestTimeout is belt and braces here: even if the peer close were
	// not noticed, the per-request write deadline frees the handler.
	s := serve.New(serve.Config{RequestTimeout: 5 * time.Second})
	t.Cleanup(func() { s.Close() })
	if err := s.Mount("big", comp.Blob); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /v1/archives/big/fields/big HTTP/1.1\r\nHost: t\r\nRange: bytes=0-\r\n\r\n")
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status = %d, want 206", resp.StatusCode)
	}
	// Read a sliver of the body so the response is definitely streaming,
	// then stop reading: the handler blocks on a full socket.
	if _, err := io.ReadFull(resp.Body, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if st := s.AdmissionStats(); st.InFlightBytes == 0 {
		t.Fatalf("admission weight not held while streaming: %+v", st)
	}
	conn.Close()

	deadline := time.Now().Add(15 * time.Second)
	for {
		st := s.AdmissionStats()
		if st.InFlightBytes == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission weight still held %v after client disconnect: %+v",
				15*time.Second, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
