package sweepclient

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// jhash builds a distinct valid journal hash.
func jhash(i int) string { return fmt.Sprintf("%064x", 0xabc0+i) }

func TestJournalRecordAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "resume.ndjson")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Record(jhash(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate records are no-ops, on the Len and on the file.
	if err := j.Record(jhash(0)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 5 {
		t.Fatalf("reopened Len = %d, want 5", j2.Len())
	}
	for i := 0; i < 5; i++ {
		if !j2.Has(jhash(i)) {
			t.Fatalf("reopened journal lost %s", jhash(i))
		}
	}
	if j2.Has(jhash(99)) {
		t.Fatal("journal invented a completion")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 5 {
		t.Fatalf("file has %d records, want 5 (duplicate appended?)", n)
	}
}

func TestJournalTruncatesTornTail(t *testing.T) {
	cases := map[string]struct {
		intact  string
		records int
	}{
		"after-intact-records": {fmt.Sprintf("{\"hash\":%q}\n{\"hash\":%q}\n", jhash(1), jhash(2)), 2},
		// A crash during the very first append: no record precedes the
		// tail, but it is the start of a record line, so it is debris.
		"lone-first-record": {"", 0},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "resume.ndjson")
			// A crash mid-append leaves a half-written record with no newline.
			if err := os.WriteFile(path, []byte(tc.intact+`{"hash":"dead`), 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if j.Len() != tc.records {
				t.Fatalf("Len = %d, want the %d intact records", j.Len(), tc.records)
			}
			// The torn tail must be gone so the next append starts a clean line.
			if err := j.Record(jhash(3)); err != nil {
				t.Fatal(err)
			}
			j.Close()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.intact + fmt.Sprintf("{\"hash\":%q}\n", jhash(3))
			if string(data) != want {
				t.Fatalf("file after torn-tail recovery:\n%q\nwant:\n%q", data, want)
			}
		})
	}
}

func TestJournalTruncatesGarbledFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "resume.ndjson")
	intact := fmt.Sprintf("{\"hash\":%q}\n", jhash(1))
	// A crash can tear a record and still land the newline.
	if err := os.WriteFile(path, []byte(intact+"{\"ha}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 1 || !j.Has(jhash(1)) {
		t.Fatalf("Len = %d, want the 1 intact record", j.Len())
	}
}

// foreignFiles are inputs that are not journals and must never be
// truncated or appended to.
var foreignFiles = map[string]string{
	// Malformed content before the final line cannot be crash debris.
	"malformed-prefix": "dear diary\nnothing happened\n" + `{"hash":"x"}` + "\n",
	// A lone non-record line has no intact record before it and is not
	// the start of a record line.
	"one-line":              "dear diary\n",
	"one-line-unterminated": "dear diary",
	"csv-line":              "x,y,z\n",
	"other-json":            `{"a":1}`,
}

func TestJournalRejectsForeignFile(t *testing.T) {
	for name, content := range foreignFiles {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "notes.txt")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenJournal(path); err == nil {
				t.Fatal("journal opened a file that is clearly not a journal")
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != content {
				t.Fatalf("rejected file was modified: %q, want %q", data, content)
			}
		})
	}
}

// FuzzOpenJournal feeds arbitrary file contents to OpenJournal and
// checks that reopening never destroys data it cannot prove to be a
// torn journal record, and that recovery is idempotent.
func FuzzOpenJournal(f *testing.F) {
	rec := func(i int) string { return fmt.Sprintf("{\"hash\":%q}\n", jhash(i)) }
	f.Add([]byte(""))
	f.Add([]byte(rec(1) + rec(2) + rec(1)))
	f.Add([]byte(rec(1) + rec(2) + `{"hash":"dead`))
	f.Add([]byte(rec(1) + "{\"ha}\n"))
	f.Add([]byte(`{"hash":"dead`))
	f.Add([]byte(rec(1)[:len(rec(1))-1]))
	f.Add([]byte("\n \n" + rec(3)))
	for _, content := range foreignFiles {
		f.Add([]byte(content))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		path := filepath.Join(t.TempDir(), "resume.ndjson")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		out, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(out, in) {
				t.Fatalf("failed open modified the file:\nin:  %q\nout: %q", in, out)
			}
			return
		}
		n := j.Len()
		j.Close()

		if !bytes.HasPrefix(in, out) || (len(out) > 0 && out[len(out)-1] != '\n') {
			t.Fatalf("kept bytes are not a whole-line prefix of the input:\nin:  %q\nout: %q", in, out)
		}
		hashes := map[string]bool{}
		records := 0
		for _, line := range bytes.SplitAfter(out, []byte("\n")) {
			var r journalRecord
			if json.Unmarshal(bytes.TrimSpace(line), &r) == nil && validHash(r.Hash) {
				hashes[r.Hash] = true
				records++
			}
		}
		if n != len(hashes) {
			t.Fatalf("Len = %d, want %d distinct hashes in %q", n, len(hashes), out)
		}
		if dropped := in[len(out):]; len(dropped) > 0 && records == 0 && !isRecordLinePrefix(dropped) {
			t.Fatalf("dropped %q with no intact record before it", dropped)
		}

		j2, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		n2 := j2.Len()
		j2.Close()
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, out) || n2 != n {
			t.Fatalf("second open changed the journal: %q (Len %d) -> %q (Len %d)", out, n, again, n2)
		}
	})
}

// isRecordLinePrefix is the fuzz oracle for "b is the start of a
// record line": complete b's hash digits with zeros and check b against
// the line Record would write for that hash.
func isRecordLinePrefix(b []byte) bool {
	const head = `{"hash":"`
	h := []byte(strings.Repeat("0", 64))
	if len(b) > len(head) {
		copy(h, b[len(head):])
	}
	if !validHash(string(h)) {
		return false
	}
	line, err := json.Marshal(journalRecord{Hash: string(h)})
	if err != nil {
		return false
	}
	return bytes.HasPrefix(append(line, '\n'), b)
}
