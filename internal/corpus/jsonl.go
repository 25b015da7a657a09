package corpus

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// WriteJSONL writes inputs to path as one JSON object per line, the
// interchange format cmd/zombie-datagen produces and cmd/zombie consumes.
// The file is created or truncated.
func WriteJSONL(path string, inputs []*Input) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("corpus: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("corpus: close %s: %w", path, cerr)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i, in := range inputs {
		if in == nil {
			return fmt.Errorf("corpus: nil input at index %d", i)
		}
		if err := enc.Encode(in); err != nil {
			return fmt.Errorf("corpus: encode input %d (%s): %w", i, in.ID, err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("corpus: flush %s: %w", path, err)
	}
	return nil
}

// ReadJSONL loads every input from a JSONL file written by WriteJSONL.
func ReadJSONL(path string) ([]*Input, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: open %s: %w", path, err)
	}
	defer f.Close()
	return DecodeJSONL(f)
}

// DecodeJSONL reads inputs from an io.Reader in JSONL form. It is the
// tolerant decode stopping at its first undecodable line, which it names.
func DecodeJSONL(r io.Reader) ([]*Input, error) {
	out, _, _, err := decodeJSONL(r, true)
	return out, err
}

// Skipped records one corrupt JSONL line dropped by a tolerant decode.
type Skipped struct {
	// Line is the 1-based line number in the source.
	Line int `json:"line"`
	// Reason is the decode failure.
	Reason string `json:"reason"`
}

// ReadJSONLTolerant is ReadJSONL for corpora collected in the wild: a
// line that fails to decode is skipped and reported instead of aborting
// the load. A torn final line — the signature of a crashed or concurrent
// writer — is tolerated the same way. Strict loading (DecodeJSONL) stays
// the default for generated corpora, where a corrupt line means a bug,
// not weather.
func ReadJSONLTolerant(path string) ([]*Input, []Skipped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("corpus: open %s: %w", path, err)
	}
	defer f.Close()
	return DecodeJSONLTolerant(f)
}

// DecodeJSONLTolerant reads inputs from JSONL, skipping undecodable lines
// and reporting each skip with its line number. It fails only on reader
// errors (the data never arrived) or when lines were skipped and no input
// survives (an all-corrupt corpus is indistinguishable from pointing at
// the wrong file, and deserves a loud failure rather than an empty
// store). Input with nothing to skip decodes as DecodeJSONL does.
func DecodeJSONLTolerant(r io.Reader) ([]*Input, []Skipped, error) {
	out, skipped, lines, err := decodeJSONL(r, false)
	if err == nil && len(out) == 0 && len(skipped) > 0 {
		err = fmt.Errorf("corpus: no input survived tolerant decode (%d of %d lines corrupt)", len(skipped), lines)
	}
	return out, skipped, err // out is empty whenever err is set
}

// decodeJSONL scans JSONL line by line, blank lines skipped, and returns
// the decoded inputs, the undecodable lines it skipped and how many lines
// it read. strict stops the scan at the first undecodable line with an
// error naming it.
func decodeJSONL(r io.Reader, strict bool) (out []*Input, skipped []Skipped, lines int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24) // pages can be long lines
	for sc.Scan() {
		lines++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		in := new(Input)
		if err := json.Unmarshal(raw, in); err != nil {
			if strict {
				return nil, nil, lines, fmt.Errorf("corpus: line %d: %w", lines, err)
			}
			skipped = append(skipped, Skipped{Line: lines, Reason: err.Error()})
			continue
		}
		out = append(out, in)
	}
	if err := sc.Err(); err != nil {
		return nil, skipped, lines, fmt.Errorf("corpus: scan: %w", err)
	}
	return out, skipped, lines, nil
}
