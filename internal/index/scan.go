package index

import (
	"unicode"
	"unicode/utf8"
)

// TokenScanner walks a text once and yields its lowercase alphanumeric
// tokens already hashed — the shared tokenizer under the index
// vectorizers and the task feature functions, mirroring how the paper's
// generic index features reuse the same parsing machinery as user code.
// The token sequence is exactly
//
//	strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
//		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
//	})
//
// on every input, invalid UTF-8 included (an invalid byte decodes to
// U+FFFD, a separator, in both), but no lowercased copy, token slice or
// token string is ever built: callers get hash states and a byte span.
//
//	for sc := (index.TokenScanner{Text: text}); sc.Next(); {
//		bucket := int(sc.Hash % uint32(dim)) // == HashToken(token, dim)
//	}
type TokenScanner struct {
	// Text is the input; set it before the first Next.
	Text string
	// Hash is the FNV-1a state over the current token's lowercased bytes,
	// before the modulo: Hash % dim is the token's HashToken bucket.
	Hash uint32
	// Pair is the FNV-1a state of previous token + "_" + current token,
	// the bigram's bucket before the modulo. It continues from the
	// previous token's final state rather than rehashing it, so a bigram
	// costs one more multiply per byte. Meaningful when N > 1.
	Pair uint32
	// Start and End delimit the current token in Text (original bytes:
	// lowercase Text[Start:End] to get the token itself).
	Start, End int
	// N counts the tokens yielded so far, the current one included.
	N int
}

// asciiToken maps an ASCII byte to its lowercase form when it is a token
// byte (a letter or a digit) and to 0 when it separates tokens.
var asciiToken = func() (t [utf8.RuneSelf]byte) {
	for c := '0'; c <= '9'; c++ {
		t[c] = byte(c)
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] = byte(c)
		t[c-'a'+'A'] = byte(c)
	}
	return t
}()

// Next advances to the next token and reports whether there was one.
func (s *TokenScanner) Next() bool {
	text := s.Text
	h := uint32(fnvOffset32)
	pair := (s.Hash ^ '_') * fnvPrime32
	start := -1
	i := s.End
	for i < len(text) {
		c := text[i]
		if c < utf8.RuneSelf {
			if c = asciiToken[c]; c != 0 {
				if start < 0 {
					start = i
				}
				h = (h ^ uint32(c)) * fnvPrime32
				pair = (pair ^ uint32(c)) * fnvPrime32
				i++
				continue
			}
			if start >= 0 {
				break
			}
			i++
			continue
		}
		// Beyond ASCII the rune is lowercased first and classified after,
		// as ToLower-then-FieldsFunc does, and the hash runs over the
		// lowered rune's encoding, which can be shorter or longer than
		// the original's ('İ' is two bytes, its lowercase 'i' one).
		r, width := utf8.DecodeRuneInString(text[i:])
		r = unicode.ToLower(r)
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			var enc [utf8.UTFMax]byte
			for _, c := range enc[:utf8.EncodeRune(enc[:], r)] {
				h = (h ^ uint32(c)) * fnvPrime32
				pair = (pair ^ uint32(c)) * fnvPrime32
			}
			i += width
			continue
		}
		if start >= 0 {
			break
		}
		i += width
	}
	s.End = i
	if start < 0 {
		return false
	}
	s.Hash, s.Pair, s.Start = h, pair, start
	s.N++
	return true
}
