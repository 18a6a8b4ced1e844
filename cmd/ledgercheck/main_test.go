package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"profam/internal/ledger"
)

// legacyLine renders rec as a ledger line written while the pair backend
// was selectable: the same JSON with pair_backend after the fingerprint.
func legacyLine(t *testing.T, rec ledger.Record) string {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	fp := `"config_fingerprint":"` + rec.Fingerprint + `",`
	line := strings.Replace(string(b), fp, fp+`"pair_backend":"gst",`, 1)
	if line == string(b) {
		t.Fatal("fingerprint field not found")
	}
	return line + "\n"
}

// TestLegacyPairBackendAccepted: a ledger line that still carries the
// retired pair_backend field replays through ledger.Open and passes
// ledgercheck, while an unknown field still fails the schema check.
func TestLegacyPairBackendAccepted(t *testing.T) {
	rec := ledger.Record{
		Epoch:          1,
		Status:         ledger.StatusCommitted,
		Fingerprint:    "psi=8 pairs=gst",
		Submissions:    1,
		NewSequences:   3,
		CorpusSize:     3,
		InputDigest:    ledger.NamesDigest([]string{"a", "b", "c"}),
		Families:       1,
		FamiliesDigest: ledger.FamiliesTextDigest([]byte("# fam\n")),
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.jsonl")
	if err := os.WriteFile(path, []byte(legacyLine(t, rec)), 0o644); err != nil {
		t.Fatal(err)
	}

	led, err := ledger.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if led.Recovered() || led.Len() != 1 {
		t.Fatalf("legacy line not replayed: recovered=%v records=%d", led.Recovered(), led.Len())
	}
	if got := led.Records()[0]; got.FamiliesDigest != rec.FamiliesDigest || got.Fingerprint != rec.Fingerprint {
		t.Fatalf("legacy record replayed as %+v", got)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	if err := run([]string{"-ledger", path, "-expect-committed", "1"}, devNull); err != nil {
		t.Fatalf("ledgercheck rejected a legacy ledger: %v", err)
	}

	unknown := strings.Replace(legacyLine(t, rec), `"pair_backend"`, `"pair_source"`, 1)
	if err := os.WriteFile(path, []byte(unknown), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-ledger", path}, devNull); err == nil {
		t.Fatal("ledgercheck accepted an unknown field")
	}
}
