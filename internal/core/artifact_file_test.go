//go:build unix

package core

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestArtifactFileRefusesNonRegular pins the file layer's bound: a FIFO
// and a sparse file one byte over maxArtifactBytes are refused with
// ErrArtifactFormat before a byte is read, so neither blocks the caller
// nor reads without end. Each load runs under a deadline: a read that
// blocks fails the test instead of hanging it.
func TestArtifactFileRefusesNonRegular(t *testing.T) {
	f, cfg, _ := quickArtifactFusion(t)
	dir := t.TempDir()
	fifo := filepath.Join(dir, "fifo"+ArtifactExt)
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	big := filepath.Join(dir, "big"+ArtifactExt)
	if err := os.WriteFile(big, []byte(ArtifactMagic), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(big, maxArtifactBytes+1); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{fifo, big} {
		for name, load := range map[string]func() error{
			"LoadArtifactFile": func() error { _, err := LoadArtifactFile(path); return err },
			"LoadArtifactFileFor": func() error {
				_, err := LoadArtifactFileFor(path, f, cfg)
				return err
			},
		} {
			done := make(chan error, 1)
			go func() { done <- load() }()
			select {
			case err := <-done:
				if !errors.Is(err, ErrArtifactFormat) {
					t.Errorf("%s(%s): got %v, want ErrArtifactFormat", name, filepath.Base(path), err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s(%s) still running after 10s", name, filepath.Base(path))
			}
		}
	}
}
