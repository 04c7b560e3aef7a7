package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreEntry plants arbitrary bytes as the on-disk entry of one key
// and checks the reading contract. Open and Get never panic. Get serves
// the entry only when its sha256 trailer verifies, and then exactly the
// payload before the trailer. Any other entry is moved to the
// quarantine directory byte for byte and reported as a miss. A Put of
// the planted bytes afterwards round-trips through Get, also across a
// reopen.
func FuzzStoreEntry(f *testing.F) {
	payload := []byte(`{"report": 1}`)
	framed := withTrailer(payload)
	flipped := append([]byte(nil), framed...)
	flipped[0] ^= 1
	f.Add(framed)
	f.Add(withTrailer(nil))
	f.Add([]byte{})
	f.Add([]byte("\n"))
	f.Add(framed[:len(framed)/2])                       // torn write
	f.Add(flipped)                                      // bit flip in the payload
	f.Add(append(append([]byte(nil), framed...), '\n')) // trailing garbage
	f.Add(bytes.ToUpper(framed))                        // upper-case hex trailer
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		k := key("fuzz")
		path := filepath.Join(dir, k[:2], k+".json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}

		// An entry is intact exactly when re-framing its payload part
		// reproduces the file: the writer's view, independent of the
		// reader's parsing.
		intact := len(raw) >= trailerLen && bytes.Equal(withTrailer(raw[:len(raw)-trailerLen]), raw)
		got, ok := s.Get(k)
		if ok != intact {
			t.Fatalf("Get served=%v for an entry whose trailer verifies=%v: %q", ok, intact, raw)
		}
		if ok {
			if want := raw[:len(raw)-trailerLen]; !bytes.Equal(got, want) {
				t.Fatalf("Get = %q, want the payload %q", got, want)
			}
		} else {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry left in place (stat err %v)", err)
			}
			q, err := os.ReadFile(filepath.Join(dir, quarantineDir, k+".json"))
			if err != nil || !bytes.Equal(q, raw) {
				t.Fatalf("quarantine holds %q (err %v), want the planted bytes %q", q, err, raw)
			}
			if st := s.Stats(); st.Quarantined != 1 || st.Entries != 0 {
				t.Fatalf("after quarantine: %+v", st)
			}
			if _, ok := s.Get(k); ok {
				t.Fatal("quarantined entry served on a second Get")
			}
		}

		if err := s.Put(k, raw); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if got, ok := s.Get(k); !ok || !bytes.Equal(got, raw) {
			t.Fatalf("Put then Get = %q/%v, want %q", got, ok, raw)
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got, ok := s2.Get(k); !ok || !bytes.Equal(got, raw) {
			t.Fatalf("Get after reopen = %q/%v, want %q", got, ok, raw)
		}
	})
}
