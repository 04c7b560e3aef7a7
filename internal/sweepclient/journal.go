package sweepclient

// journal.go — the crash-safe client resume journal. A fleet sweep can
// outlive its client: the daemons' shared store holds every completed
// point, but a freshly restarted client has no idea which points those
// are without re-asking for all of them. The journal closes that gap on
// the client side: one append-only NDJSON record per completed point
// hash, fsync'd before the completion is considered durable, so a
// killed client resumes exactly where it stopped (cmd/sweep -resume).
// Journaled points are restored from the daemons' store via
// /v1/results/{hash} instead of being re-submitted.
//
// Crash safety: records are appended with an fsync per completion, so a
// crash loses at most the record being written. A torn final record —
// the half-line a kill mid-append leaves — is detected on open and
// truncated away, and its point simply re-runs; the journal never
// invents a completion. A tail is only treated as torn when the file
// is provably a journal: an intact record precedes it, or it is a
// byte-prefix of a record line. Anything else is a foreign file and is
// left untouched.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Journal is an append-only, fsync'd record of completed point hashes.
// Safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	seen map[string]struct{}
}

// journalRecord is one NDJSON line.
type journalRecord struct {
	Hash string `json:"hash"`
}

// OpenJournal opens (creating if needed) a journal file and loads the
// hashes it already holds. A torn trailing record from a crashed
// writer is truncated away; any other malformed content is an error
// that leaves the file as it was — the file is probably not a journal,
// and appending to it would destroy whatever it is.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweepclient: journal: %w", err)
	}
	j := &Journal{f: f, path: path, seen: make(map[string]struct{})}
	good, err := j.load()
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop the torn tail (if any) and position appends after the intact
	// prefix.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweepclient: journal: %w", err)
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweepclient: journal: %w", err)
	}
	return j, nil
}

// load parses the journal into seen and returns the byte length of the
// intact record prefix.
func (j *Journal) load() (int64, error) {
	data, err := os.ReadFile(j.path)
	if err != nil {
		return 0, fmt.Errorf("sweepclient: journal: %w", err)
	}
	var good int64
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// No terminator: the torn tail of a crashed append. Keep the
			// prefix, drop the tail.
			break
		}
		line := bytes.TrimSpace(data[off : off+nl])
		end := int64(off + nl + 1)
		off += nl + 1
		if len(line) == 0 {
			good = end
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || !validHash(rec.Hash) {
			if end == int64(len(data)) {
				// A complete but garbled final line — a crash can tear a
				// record and still land the newline. Recoverable the same
				// way: truncate it, the point re-runs.
				break
			}
			return 0, fmt.Errorf("sweepclient: %s does not look like a resume journal (bad record at byte %d)", j.path, off-nl-1)
		}
		j.seen[rec.Hash] = struct{}{}
		good = end
	}
	// Drop a torn tail only when it is provably crash debris: a record
	// was intact before it, or it is the start of a record line. A lone
	// line of anything else is a foreign file, not a torn journal.
	if good < int64(len(data)) && len(j.seen) == 0 && !recordPrefix(data[good:]) {
		return 0, fmt.Errorf("sweepclient: %s does not look like a resume journal (bad record at byte %d)", j.path, good)
	}
	return good, nil
}

// Len returns how many distinct completed hashes the journal holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.seen)
}

// Has reports whether hash is journaled as completed.
func (j *Journal) Has(hash string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.seen[hash]
	return ok
}

// Record durably appends a completed point hash: the record is written
// and fsync'd before Record returns, so a client killed afterwards
// resumes past this point. Re-recording a known hash is a no-op.
func (j *Journal) Record(hash string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.seen[hash]; ok {
		return nil
	}
	line, err := json.Marshal(journalRecord{Hash: hash})
	if err != nil {
		return fmt.Errorf("sweepclient: journal: %w", err)
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("sweepclient: journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("sweepclient: journal: %w", err)
	}
	j.seen[hash] = struct{}{}
	return nil
}

// Close closes the journal file. Recorded completions are already
// durable; Close only releases the handle.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// validHash reports whether h is a canonical 64-digit lowercase hex
// sha256 string — the only thing a journal record may carry.
func validHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		if !isLowerHex(h[i]) {
			return false
		}
	}
	return true
}

// recordPrefix reports whether b is a byte-prefix of a record line as
// Record writes it: {"hash":"<64 lowercase hex digits>"} and a newline.
func recordPrefix(b []byte) bool {
	const head, tail = `{"hash":"`, "\"}\n"
	if len(b) > len(head)+64+len(tail) {
		return false
	}
	for i, c := range b {
		switch {
		case i < len(head):
			if c != head[i] {
				return false
			}
		case i < len(head)+64:
			if !isLowerHex(c) {
				return false
			}
		default:
			if c != tail[i-len(head)-64] {
				return false
			}
		}
	}
	return true
}

func isLowerHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
}
