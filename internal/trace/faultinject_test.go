package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hpctradeoff/internal/faultinject"
)

// The codec-read failpoint turns a decode into an I/O-style failure at
// a chosen rank, so tests can exercise read-error paths on structurally
// valid inputs; disarmed, the codec is untouched.
func TestCodecReadFailpoint(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(1)))
	var enc bytes.Buffer
	if err := WriteColumnsV3(&enc, FromTrace(tr)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.htrc")
	if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	arm := func(seed int64) {
		t.Helper()
		if err := faultinject.Arm(seed, []faultinject.Rule{
			{Site: "trace/codec-read", Hits: []uint64{1}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(faultinject.Disarm)

	arm(1)
	if _, err := ReadColumns(bytes.NewReader(enc.Bytes())); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("ReadColumns err = %v, want injected", err)
	}
	// The rule is exhausted after one firing per arm; re-arm for the
	// mapped path.
	arm(2)
	if _, err := OpenMapped(path); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("OpenMapped err = %v, want injected", err)
	}

	faultinject.Disarm()
	if _, err := ReadColumns(bytes.NewReader(enc.Bytes())); err != nil {
		t.Errorf("disarmed ReadColumns failed: %v", err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("disarmed OpenMapped failed: %v", err)
	}
	m.Close()
}
