package text

import (
	"math"
	"sort"
	"strings"
	"sync"
)

// posting records one document occurrence of a term.
type posting struct {
	Doc  int   // document ID (caller-defined, e.g. a row ID)
	Freq int   // term frequency
	Pos  []int // token positions for phrase queries
}

// Index is an in-memory inverted index with TF-IDF ranking.
type Index struct {
	mu       sync.RWMutex
	postings map[string][]posting
	docLen   map[int]int
	docs     int
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{postings: map[string][]posting{}, docLen: map[int]int{}}
}

// Add indexes a document under the given ID. Re-adding an ID without
// Remove first double-counts; the Indexer layer manages lifecycles.
func (ix *Index) Add(doc int, content string) {
	toks := Tokenize(content)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	byTerm := map[string][]int{}
	for _, t := range toks {
		byTerm[t.Term] = append(byTerm[t.Term], t.Pos)
	}
	for term, positions := range byTerm {
		ix.postings[term] = append(ix.postings[term], posting{Doc: doc, Freq: len(positions), Pos: positions})
	}
	ix.docLen[doc] = len(toks)
	ix.docs++
}

// Remove drops a document from the index.
func (ix *Index) Remove(doc int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.docLen[doc]; !ok {
		return
	}
	for term, ps := range ix.postings {
		kept := ps[:0]
		for _, p := range ps {
			if p.Doc != doc {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			delete(ix.postings, term)
		} else {
			ix.postings[term] = kept
		}
	}
	delete(ix.docLen, doc)
	ix.docs--
}

// DocCount returns the number of indexed documents.
func (ix *Index) DocCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.docs
}

// Hit is one ranked search result.
type Hit struct {
	Doc   int
	Score float64
}

// Search runs a query: terms are ANDed; "quoted phrases" must appear
// adjacent; a trailing ~ on a term enables fuzzy matching (edit distance
// 1). Results are TF-IDF ranked, best first.
func (ix *Index) Search(query string) []Hit {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	phrases, terms := parseQuery(query)
	if len(phrases) == 0 && len(terms) == 0 {
		return nil
	}
	scores := map[int]float64{}
	matchedAll := map[int]int{}
	need := len(terms) + len(phrases)

	for _, q := range terms {
		docs := ix.matchTerm(q)
		for doc, tf := range docs {
			idf := math.Log(1 + float64(ix.docs)/float64(len(docs)))
			scores[doc] += float64(tf) / float64(max(1, ix.docLen[doc])) * idf * 100
			matchedAll[doc]++
		}
	}
	for _, ph := range phrases {
		docs := ix.matchPhrase(ph)
		for doc, tf := range docs {
			idf := math.Log(1 + float64(ix.docs)/float64(max(1, len(docs))))
			scores[doc] += float64(tf) / float64(max(1, ix.docLen[doc])) * idf * 150
			matchedAll[doc]++
		}
	}

	var hits []Hit
	for doc, n := range matchedAll {
		if n == need {
			hits = append(hits, Hit{Doc: doc, Score: scores[doc]})
		}
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Score != hits[b].Score {
			return hits[a].Score > hits[b].Score
		}
		return hits[a].Doc < hits[b].Doc
	})
	return hits
}

// Contains reports whether the document matches the query (unranked).
func (ix *Index) Contains(doc int, query string) bool {
	for _, h := range ix.Search(query) {
		if h.Doc == doc {
			return true
		}
	}
	return false
}

type fuzzyTerm struct {
	term  string
	fuzzy bool
}

func parseQuery(q string) (phrases [][]string, terms []fuzzyTerm) {
	q = strings.TrimSpace(q)
	for {
		i := strings.IndexByte(q, '"')
		if i < 0 {
			break
		}
		j := strings.IndexByte(q[i+1:], '"')
		if j < 0 {
			break
		}
		phrase := q[i+1 : i+1+j]
		var ph []string
		for _, t := range Tokenize(phrase) {
			ph = append(ph, t.Term)
		}
		if len(ph) > 0 {
			phrases = append(phrases, ph)
		}
		q = q[:i] + " " + q[i+1+j+1:]
	}
	for _, w := range strings.Fields(q) {
		fuzzy := strings.HasSuffix(w, "~")
		w = strings.TrimSuffix(w, "~")
		for _, t := range Tokenize(w) {
			terms = append(terms, fuzzyTerm{term: t.Term, fuzzy: fuzzy})
		}
	}
	return phrases, terms
}

// matchTerm returns doc -> term frequency for exact or fuzzy matches.
func (ix *Index) matchTerm(q fuzzyTerm) map[int]int {
	out := map[int]int{}
	if !q.fuzzy {
		for _, p := range ix.postings[q.term] {
			out[p.Doc] += p.Freq
		}
		return out
	}
	for term, ps := range ix.postings {
		if term == q.term || editDistance1(term, q.term) {
			for _, p := range ps {
				out[p.Doc] += p.Freq
			}
		}
	}
	return out
}

// matchPhrase returns doc -> phrase frequency using positional postings.
func (ix *Index) matchPhrase(terms []string) map[int]int {
	out := map[int]int{}
	if len(terms) == 0 {
		return out
	}
	// doc -> positions of first term.
	first := map[int][]int{}
	for _, p := range ix.postings[terms[0]] {
		first[p.Doc] = append(first[p.Doc], p.Pos...)
	}
	for doc, starts := range first {
		count := 0
		for _, s := range starts {
			ok := true
			for k := 1; k < len(terms); k++ {
				if !ix.hasAt(terms[k], doc, s+k) {
					ok = false
					break
				}
			}
			if ok {
				count++
			}
		}
		if count > 0 {
			out[doc] = count
		}
	}
	return out
}

func (ix *Index) hasAt(term string, doc, pos int) bool {
	for _, p := range ix.postings[term] {
		if p.Doc != doc {
			continue
		}
		for _, pp := range p.Pos {
			if pp == pos {
				return true
			}
		}
	}
	return false
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
