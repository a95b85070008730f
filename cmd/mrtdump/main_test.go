package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bgpintent/internal/corpus"
	"bgpintent/internal/ingest"
	"bgpintent/internal/mrt"
)

func writeRIBFile(t *testing.T) string {
	t.Helper()
	cfg := corpus.TinyConfig()
	cfg.Days = 0
	c, err := corpus.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Sim.RunDay(0)
	path := filepath.Join(t.TempDir(), "test.rib.mrt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sim.WriteRIB(f, 1714521600, 0, res); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

func TestRunSummary(t *testing.T) {
	path := writeRIBFile(t)
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "TABLE_DUMP_V2/PEER_INDEX_TABLE") || !strings.Contains(s, "TABLE_DUMP_V2/RIB") {
		t.Errorf("summary output = %q", s)
	}
}

func TestRunVerbose(t *testing.T) {
	path := writeRIBFile(t)
	var out bytes.Buffer
	if err := run([]string{"-v", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "PEER_INDEX_TABLE collector=") || !strings.Contains(s, "RIB ") {
		t.Errorf("verbose output missing route lines: %.200q", s)
	}
	if !strings.Contains(s, "path=[") {
		t.Error("verbose output missing AS paths")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"/nonexistent.mrt"}, &bytes.Buffer{}); err == nil {
		t.Error("missing file accepted")
	}
}

// corruptRIBFile clips the file mid-record and wrecks one record body,
// producing both a framing failure and a decode failure.
func corruptRIBFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// First record is the peer table; stomp on the body of the second.
	l0 := int(data[8])<<24 | int(data[9])<<16 | int(data[10])<<8 | int(data[11])
	body2 := 12 + l0 + 12
	for i := body2 + 4; i < body2+12 && i < len(data); i++ {
		data[i] = 0xff
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunLenientCorrupt(t *testing.T) {
	path := writeRIBFile(t)
	corruptRIBFile(t, path)
	var out bytes.Buffer
	err := run([]string{"-stats", path}, &out)
	if err == nil {
		t.Fatal("corrupted file exited cleanly")
	}
	if !strings.Contains(err.Error(), "undecodable") {
		t.Errorf("error = %v, want undecodable-records summary", err)
	}
	s := out.String()
	if !strings.Contains(s, "skipped undecodable records:") {
		t.Errorf("output missing skip summary: %q", s)
	}
	if !strings.Contains(s, "framing:") {
		t.Errorf("-stats output missing framing line: %q", s)
	}
	// The salvageable records still get counted.
	if !strings.Contains(s, "TABLE_DUMP_V2/RIB") {
		t.Errorf("output lost the per-type counts: %q", s)
	}
}

func TestRunStrictCorrupt(t *testing.T) {
	path := writeRIBFile(t)
	corruptRIBFile(t, path)
	var out bytes.Buffer
	err := run([]string{"-strict", path}, &out)
	if err == nil {
		t.Fatal("-strict accepted a corrupted file")
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Errorf("strict error %q carries no byte offset", err)
	}
}

// TestRunStdin pipes plain and gzipped MRT through "-" and expects the
// same summary as reading the file directly.
func TestRunStdin(t *testing.T) {
	path := writeRIBFile(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var gzBuf bytes.Buffer
	zw := gzip.NewWriter(&gzBuf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	for name, data := range map[string][]byte{"plain": raw, "gzip": gzBuf.Bytes()} {
		oldStdin := stdin
		stdin = bytes.NewReader(data)
		var out bytes.Buffer
		err := run([]string{"-"}, &out)
		stdin = oldStdin
		if err != nil {
			t.Fatalf("%s via stdin: %v", name, err)
		}
		s := out.String()
		if !strings.Contains(s, "stdin:") || !strings.Contains(s, "TABLE_DUMP_V2/RIB") {
			t.Errorf("%s via stdin: output = %q", name, s)
		}
	}
}

// TestRunVerboseUpdateRecords: a BGP4MP_ET MESSAGE_AS4 record, whose
// body starts with the 4-octet microsecond field, and a 2-octet
// BGP4MP_MESSAGE record carrying a 2-octet UPDATE both print their
// update — peer AS 65269, path 65269 64496 — and mrtdump exits 0. A
// truncated ET body is a skip, counted as LoadMRT counts it.
func TestRunVerboseUpdateRecords(t *testing.T) {
	path := writeMRT(t, etUpdate, legacyUpdate)
	var out bytes.Buffer
	if err := run([]string{"-v", path}, &out); err != nil {
		t.Fatalf("mrtdump -v: %v\n%s", err, out.String())
	}
	var updates int
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "UPDATE ") {
			continue
		}
		updates++
		if !strings.Contains(line, "peer=AS65269 ") || !strings.Contains(line, "path=[65269 64496]") {
			t.Errorf("update line %q, want peer=AS65269 and path=[65269 64496]", line)
		}
	}
	if updates != 2 || !strings.Contains(out.String(), "BGP4MP") {
		t.Errorf("%d update lines, want 2:\n%s", updates, out.String())
	}

	short := writeMRT(t, etShort, as4Update)
	out.Reset()
	err := run([]string{"-stats", short}, &out)
	if err == nil || !strings.Contains(err.Error(), "1 undecodable") {
		t.Errorf("truncated ET body: error %v, want 1 undecodable record", err)
	}
	st, _ := dump(io.Discard, short, options{})
	var want ingest.Stats
	if err := ingest.Scan(context.Background(), []ingest.InputFile{{Path: short, Updates: true}},
		ingest.Options{MaxErrorRate: -1}, 1, &want, func() ingest.Sink {
			return ingest.Sink{Update: func(*mrt.UpdateView) error { return nil }}
		}); err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 1 || st.SkipReasons["bgp4mp"] != 1 || !reflect.DeepEqual(st, want.Total) {
		t.Errorf("truncated ET body: mrtdump counts %+v, the ingest scan %+v", st, want.Total)
	}
}
