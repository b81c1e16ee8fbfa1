// Package ngram implements the classical n-gram language model the
// paper's background section (§2) contrasts LSTMs against: next-phrase
// probability by maximum likelihood estimation over fixed-length
// histories, with no notion of semantic closeness and no long-term
// memory. It serves as the ablation baseline for Phase-1 next-phrase
// accuracy.
package ngram

import (
	"fmt"
	"strconv"
	"strings"
)

// Model is an MLE n-gram next-token model with backoff: if the (n-1)
// token history is unseen it backs off to shorter histories, ending at
// the unigram distribution.
type Model struct {
	n      int
	counts []map[string]map[int]int // counts[k][ctx of length k][next] = freq
	vocab  int
}

// New creates an n-gram model (n >= 1; n==1 is a unigram model).
func New(n int) *Model {
	if n < 1 {
		panic(fmt.Sprintf("ngram: invalid order %d", n))
	}
	counts := make([]map[string]map[int]int, n)
	for k := range counts {
		counts[k] = make(map[string]map[int]int)
	}
	return &Model{n: n, counts: counts}
}

func ctxKey(tokens []int) string {
	var b strings.Builder
	for _, t := range tokens {
		b.WriteString(strconv.Itoa(t))
		b.WriteByte(',')
	}
	return b.String()
}

// Train counts transitions over token sequences.
func (m *Model) Train(seqs [][]int) {
	for _, seq := range seqs {
		for i, tok := range seq {
			if tok+1 > m.vocab {
				m.vocab = tok + 1
			}
			for k := 0; k < m.n; k++ {
				if i-k < 0 {
					break
				}
				ctx := ctxKey(seq[i-k : i])
				bucket := m.counts[k][ctx]
				if bucket == nil {
					bucket = make(map[int]int)
					m.counts[k][ctx] = bucket
				}
				bucket[tok]++
			}
		}
	}
}

// Predict returns the most likely next token given a history, backing
// off to shorter contexts when the full context is unseen. It returns
// -1 if the model is untrained.
func (m *Model) Predict(history []int) int {
	for k := m.n - 1; k >= 0; k-- {
		if len(history) < k {
			continue
		}
		ctx := ctxKey(history[len(history)-k:])
		bucket, ok := m.counts[k][ctx]
		if !ok || len(bucket) == 0 {
			continue
		}
		best, bestN := -1, 0
		for tok, c := range bucket {
			if c > bestN || (c == bestN && tok < best) {
				best, bestN = tok, c
			}
		}
		return best
	}
	return -1
}

// Accuracy measures next-token prediction accuracy over sequences,
// predicting each position from its preceding history.
func (m *Model) Accuracy(seqs [][]int) float64 {
	correct, total := 0, 0
	for _, seq := range seqs {
		for i := 1; i < len(seq); i++ {
			lo := i - m.n + 1
			if lo < 0 {
				lo = 0
			}
			if m.Predict(seq[lo:i]) == seq[i] {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
