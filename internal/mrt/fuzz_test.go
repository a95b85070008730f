package mrt

import (
	"bytes"
	"io"
	"math/rand"
	"net/netip"
	"testing"

	"bgpintent/internal/bgp"
)

// buildValidStream writes a small, valid MRT stream: a peer table, a RIB
// record, and one update.
func buildValidStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	table := &PeerIndexTable{
		CollectorBGPID: netip.MustParseAddr("10.0.0.1"),
		ViewName:       "fuzz",
		Peers: []Peer{
			{BGPID: netip.MustParseAddr("10.1.0.1"), Addr: netip.MustParseAddr("198.51.100.1"), ASN: 65269},
		},
	}
	tw, err := NewTableDumpWriter(&buf, 100, table)
	if err != nil {
		t.Fatal(err)
	}
	entry := RIBEntry{
		PeerIndex: 0,
		Attrs: bgp.PathAttributes{
			HasOrigin:   true,
			ASPath:      bgp.NewASPath(65269, 64496),
			Communities: bgp.Communities{bgp.NewCommunity(1299, 2569)},
		},
	}
	if err := tw.WriteRIB(bgp.MustParsePrefix("192.0.2.0/24"), []RIBEntry{entry}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	uw := NewUpdateWriter(&buf)
	msg := &bgp.UpdateMessage{NLRI: []bgp.Prefix{bgp.MustParsePrefix("203.0.113.0/24")}}
	if err := uw.WriteUpdate(101, 65269, 0, netip.MustParseAddr("198.51.100.1"), netip.MustParseAddr("10.0.0.1"), msg); err != nil {
		t.Fatal(err)
	}
	if err := uw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func drainScanners(data []byte) {
	ts := NewTableDumpScannerOptions(bytes.NewReader(data), ScanOptions{})
	for {
		if _, err := ts.Next(); err != nil {
			break
		}
	}
	us := NewUpdateScannerOptions(bytes.NewReader(data), ScanOptions{})
	for {
		if _, err := us.Next(); err != nil {
			break
		}
	}
}

// TestScannersNeverPanic corrupts a valid stream in random ways; the
// scanners must fail cleanly.
func TestScannersNeverPanic(t *testing.T) {
	wire := buildValidStream(t)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 4000; trial++ {
		buf := append([]byte(nil), wire...)
		for k := 0; k < 1+rng.Intn(10); k++ {
			buf[rng.Intn(len(buf))] = byte(rng.Intn(256))
		}
		if rng.Intn(2) == 0 {
			buf = buf[:rng.Intn(len(buf)+1)]
		}
		drainScanners(buf)
	}
}

// TestScannersRandomBytes drives the scanners with pure noise.
func TestScannersRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 2000; trial++ {
		buf := make([]byte, rng.Intn(512))
		rng.Read(buf)
		drainScanners(buf)
	}
}

// TestReaderStreamBoundary checks the reader across a slow io.Reader
// that returns one byte at a time.
func TestReaderStreamBoundary(t *testing.T) {
	wire := buildValidStream(t)
	r := NewReader(&oneByteReader{data: wire})
	records := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		records++
	}
	if records != 3 {
		t.Errorf("records = %d, want 3", records)
	}
}

// oneByteReader yields one byte per Read call.
type oneByteReader struct {
	data []byte
}

func (s *oneByteReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	p[0] = s.data[0]
	s.data = s.data[1:]
	return 1, nil
}
