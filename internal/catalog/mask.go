package catalog

import (
	"unicode"
	"unicode/utf8"
)

// Mask reduces a raw log message to its static phrase key (the paper's
// Table-2 static/dynamic split): whitespace-separated tokens that carry
// any ASCII digit or a '*' wildcard are dynamic and collapse to "*";
// consecutive dynamic tokens merge into a single "*". Applying Mask to a
// rendered message and to its source template yields the same key, which
// is what lets the parser, labeler and generator agree on vocabulary.
//
// A key the static catalog knows is returned as the catalog's own Key
// string, so masking a known phrase allocates nothing; only a phrase
// the catalog has never seen costs the one allocation of its key.
// Runtime Extend keys are not interned: nothing is cached per process,
// so there is nothing to bound or evict.
func Mask(message string) string {
	// A key longer than the scratch spills to the heap inside append.
	var scratch [256]byte
	key := appendMasked(scratch[:0], message)
	if i, ok := index[string(key)]; ok { // no allocation: map lookup by converted bytes
		return Catalog[i].Key
	}
	return string(key)
}

// Byte classes of the one scan. Bytes >= utf8.RuneSelf are decoded and
// asked of unicode.IsSpace, which knows U+0085, U+00A0 and the rest.
const (
	byteStatic = iota
	byteSpace
	byteDynamic
)

var byteClass = func() (t [utf8.RuneSelf]uint8) {
	for _, c := range "\t\n\v\f\r " {
		t[c] = byteSpace
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = byteDynamic
	}
	t['*'] = byteDynamic
	return t
}()

// appendMasked appends the masked key of message to dst in one scan.
// It must not read index: index's initializer calls it.
func appendMasked(dst []byte, message string) []byte {
	base := len(dst)
	tok := -1 // start of the token being scanned, -1 between tokens
	dynamic, prevDynamic := false, false
	for i := 0; i <= len(message); {
		class, size := uint8(byteSpace), 1 // the end of the message ends a token too
		if i < len(message) {
			if c := message[i]; c < utf8.RuneSelf {
				class = byteClass[c]
			} else {
				var r rune
				r, size = utf8.DecodeRuneInString(message[i:])
				class = byteStatic
				if unicode.IsSpace(r) {
					class = byteSpace
				}
			}
		}
		switch {
		case class != byteSpace:
			if tok < 0 {
				tok, dynamic = i, false
			}
			if class == byteDynamic {
				dynamic = true
			}
		case tok >= 0:
			if !dynamic || !prevDynamic {
				if len(dst) > base {
					dst = append(dst, ' ')
				}
				if dynamic {
					dst = append(dst, '*')
				} else {
					dst = append(dst, message[tok:i]...)
				}
			}
			prevDynamic, tok = dynamic, -1
		}
		i += size
	}
	return dst
}
