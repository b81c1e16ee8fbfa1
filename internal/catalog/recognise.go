package catalog

// The recogniser: MaskRef's way to name a static catalog phrase without
// building its key. It is an index over Catalog, not a second masker:
// it accepts a message only when it has proved, token by token, that
// appendMasked would turn it into that entry's Key, and it declines
// everything else to the masker. To keep the proof a byte compare it
// takes only ASCII messages whose tokens are separated by exactly one
// ' ', so a non-ASCII byte, any other whitespace, a doubled, leading or
// trailing space all decline. A declined message pays the dispatch and
// any partial verification before the masker
// (BenchmarkMaskRefDeclined); how much real traffic takes that path
// depends on the site's log format.

// shape is one static key cut at its "*" tokens into segments: a "*",
// standing for a run of one or more dynamic tokens, or a run of static
// tokens with their single spaces, compared as one string. A static
// token holds neither a digit nor a '*' (appendMasked made it), so no
// dynamic message token can equal one.
type shape struct {
	segs []string
	ref  Ref
}

// heads dispatches on a message's first token: a static first token to
// its bucket (headSlot), the keys whose first token falls there, a
// dynamic one to dynamicHeads, the keys that begin with "*". Both are
// filled by index's initializer, which sets every Catalog[i].Key first.
// A bucket may also hold keys of another first token; matches compares
// every byte, so they cost a failed candidate, not a wrong answer.
var (
	heads        [1 << headBits][]shape
	dynamicHeads []shape
)

// headBits sizes heads: with the catalog's ~60 first tokens, few share
// a bucket.
const headBits = 8

// headSlot is the bucket of heads for the non-empty token tok: its
// length, first and last bytes, mixed by a Fibonacci multiply. Unlike a
// string-keyed map it reads three bytes of the token, not all of them.
func headSlot(tok string) uint32 {
	x := uint32(len(tok))<<16 | uint32(tok[0])<<8 | uint32(tok[len(tok)-1])
	return x * 0x9e3779b1 >> (32 - headBits)
}

// recognise returns the Ref of the static entry whose Key
// appendMasked(msg) is, or 0: no such entry, or msg is not in the form
// the recogniser proves (the caller then masks it).
func recognise(msg string) Ref {
	end, class := scanToken(msg, 0)
	var cands []shape
	switch {
	case end == 0: // empty, or a leading space
		return 0
	case class == byteStatic:
		cands = heads[headSlot(msg[:end])]
	case class == byteDynamic:
		cands = dynamicHeads
	default: // other whitespace or a non-ASCII byte
		return 0
	}
	for i := range cands {
		if cands[i].matches(msg) {
			return cands[i].ref
		}
	}
	return 0
}

// matches reports whether msg masks to s's key. p is where the
// message's next token starts, one past the ' ' that ended the last;
// len(msg)+1 once a token has ended at the end of msg, so accepting
// requires exactly that: every token consumed, no trailing space.
func (s *shape) matches(msg string) bool {
	p := 0
	for k, seg := range s.segs {
		if seg != "*" {
			if !segmentAt(msg, p, seg) {
				return false
			}
			p += len(seg) + 1
			continue
		}
		// One or more tokens that each carry a digit or a '*', up to the
		// key's next static run or, for a key that ends in "*", the end.
		next := ""
		if k+1 < len(s.segs) {
			next = s.segs[k+1]
		}
		for {
			end, class := scanToken(msg, p)
			if class != byteDynamic {
				return false // empty, static, other whitespace or non-ASCII
			}
			p = end + 1
			if p > len(msg) || (next != "" && segmentAt(msg, p, next)) {
				break
			}
		}
	}
	return p == len(msg)+1
}

// segmentAt reports whether msg holds seg at p followed by one ' ' or
// by the end of msg.
func segmentAt(msg string, p int, seg string) bool {
	end := p + len(seg)
	return end <= len(msg) && msg[p:end] == seg && (end == len(msg) || msg[end] == ' ')
}

// scanToken returns where the token starting at p ends — the next ' '
// or the end of msg — and the OR of its bytes' classes: byteStatic or
// byteDynamic for a token of ASCII non-space bytes, with byteSpace or
// byteRune set for one holding other whitespace or a non-ASCII byte.
func scanToken(msg string, p int) (end int, class uint8) {
	for end = p; end < len(msg) && msg[end] != ' '; end++ {
		class |= byteClass[msg[end]]
	}
	return end, class
}

// addShape files key, the Key of Catalog[i], under its first token. A
// key with a token the recogniser cannot compare byte for byte (a
// non-ASCII one) is left to the masker.
func addShape(key string, i int) {
	s := shape{ref: Ref(i + 1)}
	run := -1 // where the open static run starts in key; -1: none open
	for p := 0; p <= len(key); {
		end, class := scanToken(key, p)
		switch {
		case key[p:end] == "*":
			if run >= 0 {
				s.segs = append(s.segs, key[run:p-1])
				run = -1
			}
			s.segs = append(s.segs, "*")
		case class == byteStatic:
			if run < 0 {
				run = p
			}
		default:
			return
		}
		p = end + 1
	}
	if run >= 0 {
		s.segs = append(s.segs, key[run:])
	}
	if s.segs[0] == "*" {
		dynamicHeads = append(dynamicHeads, s)
		return
	}
	end, _ := scanToken(key, 0)
	h := &heads[headSlot(key[:end])]
	*h = append(*h, s)
}
