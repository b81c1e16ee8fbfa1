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
	key, _ := MaskRef(message)
	return key
}

// Ref names a static catalog entry: its index in Catalog plus one, so
// the zero Ref is "not a static phrase" (an unseen or an Extend key).
// It means something inside this process only: catalog order is not a
// format, and a Ref is never written anywhere.
type Ref int32

// MaskRef is Mask plus what its index lookup found, so a caller that
// keeps the Ref need not hash the key again to reach the entry. A
// message the recogniser proves to be a static phrase is named without
// building its key; every other message is masked.
func MaskRef(message string) (string, Ref) {
	if ref := recognise(message); ref != 0 {
		return Catalog[ref-1].Key, ref
	}
	return maskRef(message)
}

// maskRef is MaskRef without the recogniser: build the key, look it up.
func maskRef(message string) (string, Ref) {
	// A key longer than the scratch spills to the heap inside append.
	var scratch [256]byte
	return KeyRef(appendMasked(scratch[:0], message))
}

// KeyRef resolves an already masked key held in bytes — a record's key
// field, read in place: the catalog's own Key string and its Ref for a
// static phrase, so only a key the catalog does not know is copied.
func KeyRef(key []byte) (string, Ref) {
	if i, ok := index[string(key)]; ok { // no allocation: map lookup by converted bytes
		return Catalog[i].Key, Ref(i + 1)
	}
	return string(key), 0
}

// RefOf resolves an already masked key: the one lookup a decoded event
// (WAL replay, the wire) pays to carry what a parsed one got from MaskRef.
func RefOf(key string) Ref {
	if i, ok := index[key]; ok {
		return Ref(i + 1)
	}
	return 0
}

// Byte classes of the one scan, bits so that a token's can be OR-ed.
// Bytes >= utf8.RuneSelf (byteRune) are decoded and asked of
// unicode.IsSpace, which knows U+0085, U+00A0 and the rest.
const (
	byteStatic  = 0
	byteSpace   = 1
	byteDynamic = 2
	byteRune    = 4
)

var byteClass = func() (t [256]uint8) {
	for _, c := range "\t\n\v\f\r " {
		t[c] = byteSpace
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = byteDynamic
	}
	t['*'] = byteDynamic
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = byteRune
	}
	return t
}()

// appendMasked appends the masked key of message to dst in one scan,
// token by token: a separator fixes where the next token would start,
// any other character ORs its class into the token's, and the token (or
// its "*") is emitted once, by the separator or end of message closing
// it. It must not read index: index's initializer calls it.
func appendMasked(dst []byte, message string) []byte {
	base := len(dst)
	prevDynamic := false
	tok, seen := 0, uint8(0) // the open token is message[tok:i], empty between tokens
	for i := 0; ; {
		class, size := uint8(byteSpace), 1 // the end of the message ends a token too
		if i < len(message) {
			if class = byteClass[message[i]]; class == byteRune {
				var r rune
				r, size = utf8.DecodeRuneInString(message[i:])
				class = byteStatic
				if unicode.IsSpace(r) {
					class = byteSpace
				}
			}
		}
		if class != byteSpace {
			seen |= class
			i += size
			continue
		}
		if i > tok {
			dynamic := seen&byteDynamic != 0
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
			prevDynamic = dynamic
		}
		if i >= len(message) {
			return dst
		}
		i += size
		tok, seen = i, 0
	}
}
