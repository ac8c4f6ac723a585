package text

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sqlexec"
	"repro/internal/value"
)

func TestTokenizeAndStem(t *testing.T) {
	toks := Tokenize("The quick foxes were running, and jumping!")
	var terms []string
	for _, tk := range toks {
		terms = append(terms, tk.Term)
	}
	want := map[string]bool{"quick": true, "foxe": true, "run": true, "jump": true}
	for _, term := range terms {
		if !want[term] {
			t.Fatalf("unexpected term %q in %v", term, terms)
		}
	}
	if len(terms) != 4 {
		t.Fatalf("terms=%v", terms)
	}
	// Stopwords dropped; positions preserved for non-stopwords.
	if toks[0].Pos != 1 { // "The"(0) quick(1)
		t.Fatalf("pos=%d", toks[0].Pos)
	}
}

func TestStemCases(t *testing.T) {
	cases := map[string]string{
		"running": "run", "dispensers": "dispenser", "classes": "class",
		"cities": "citi", "payment": "pay", "the": "the", "go": "go",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Fatalf("Stem(%q)=%q want %q", in, got, want)
		}
	}
}

func TestEditDistance1(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"cat", "cat", true}, {"cat", "cut", true}, {"cat", "cats", true},
		{"cat", "at", true}, {"cat", "dog", false}, {"cat", "catss", false},
		{"", "a", true}, {"ab", "ba", false},
	}
	for _, c := range cases {
		if got := editDistance1(c.a, c.b); got != c.want {
			t.Fatalf("editDistance1(%q,%q)=%v", c.a, c.b, got)
		}
	}
}

func TestIndexSearchRanking(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, "the dispenser is empty, refill the dispenser now")
	ix.Add(2, "dispenser works fine")
	ix.Add(3, "unrelated sensor report about temperature")
	hits := ix.Search("dispenser")
	if len(hits) != 2 {
		t.Fatalf("hits=%v", hits)
	}
	if hits[0].Doc != 1 {
		t.Fatalf("tf ranking broken: %v", hits)
	}
	// AND semantics.
	if got := ix.Search("dispenser empty"); len(got) != 1 || got[0].Doc != 1 {
		t.Fatalf("AND broken: %v", got)
	}
	if got := ix.Search("dispenser temperature"); len(got) != 0 {
		t.Fatalf("AND leaked: %v", got)
	}
}

func TestPhraseSearch(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, "big event in the city hall tonight")
	ix.Add(2, "the event was big")
	hits := ix.Search(`"big event"`)
	if len(hits) != 1 || hits[0].Doc != 1 {
		t.Fatalf("phrase hits=%v", hits)
	}
}

func TestFuzzySearch(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, "hurricane warning for the coast")
	if got := ix.Search("huricane~"); len(got) != 1 {
		t.Fatalf("fuzzy miss: %v", got)
	}
	if got := ix.Search("huricane"); len(got) != 0 {
		t.Fatalf("exact should miss: %v", got)
	}
}

func TestIndexRemove(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, "alpha beta")
	ix.Add(2, "alpha gamma")
	ix.Remove(1)
	if got := ix.Search("beta"); len(got) != 0 {
		t.Fatalf("removed doc found: %v", got)
	}
	if got := ix.Search("alpha"); len(got) != 1 || got[0].Doc != 2 {
		t.Fatalf("surviving doc lost: %v", got)
	}
	if ix.DocCount() != 1 {
		t.Fatalf("docs=%d", ix.DocCount())
	}
}

func TestEntityExtraction(t *testing.T) {
	doc := "Mr John Smith from Acme Corp visited Berlin and paid 500 EUR. Contact: j.smith@acme.example. Sensor DISP-0042 reported."
	es := ExtractEntities(doc)
	byType := map[string][]string{}
	for _, e := range es {
		byType[e.Type] = append(byType[e.Type], e.Text)
	}
	if len(byType["PERSON"]) == 0 || byType["PERSON"][0] != "John Smith" {
		t.Fatalf("person: %v", byType)
	}
	if len(byType["COMPANY"]) == 0 || byType["COMPANY"][0] != "Acme Corp" {
		t.Fatalf("company: %v", byType)
	}
	if len(byType["LOCATION"]) == 0 || byType["LOCATION"][0] != "Berlin" {
		t.Fatalf("location: %v", byType)
	}
	if len(byType["MONEY"]) == 0 || byType["MONEY"][0] != "500 EUR" {
		t.Fatalf("money: %v", byType)
	}
	if len(byType["EMAIL"]) == 0 {
		t.Fatalf("email: %v", byType)
	}
	if len(byType["SENSOR"]) == 0 || byType["SENSOR"][0] != "DISP-0042" {
		t.Fatalf("sensor: %v", byType)
	}
}

func TestSentiment(t *testing.T) {
	if s := Sentiment("great product, works perfectly, love it"); s <= 0 {
		t.Fatalf("positive text scored %v", s)
	}
	if s := Sentiment("terrible, broken and slow"); s >= 0 {
		t.Fatalf("negative text scored %v", s)
	}
	if s := Sentiment("not good at all"); s >= 0 {
		t.Fatalf("negation not applied: %v", s)
	}
	if s := Sentiment("the invoice number is 42"); s != 0 {
		t.Fatalf("neutral text scored %v", s)
	}
}

func TestClassifier(t *testing.T) {
	c := NewClassifier()
	c.Train("complaint", "the dispenser is broken and empty again")
	c.Train("complaint", "terrible service, slow refill")
	c.Train("praise", "great service, always clean and full")
	c.Train("praise", "works perfectly, very happy")
	label, margin := c.Classify("dispenser empty and broken")
	if label != "complaint" || margin <= 0 {
		t.Fatalf("label=%q margin=%v", label, margin)
	}
	label, _ = c.Classify("clean and full, happy customers")
	if label != "praise" {
		t.Fatalf("label=%q", label)
	}
}

func TestClusterSeparatesTopics(t *testing.T) {
	docs := []string{
		"stock price market trading shares",
		"market shares stock dividend price",
		"hurricane storm wind rain coast",
		"storm rain flooding hurricane warning",
	}
	assign := Cluster(docs, 2, 10)
	if len(assign) != 4 {
		t.Fatalf("assign=%v", assign)
	}
	if assign[0] != assign[1] || assign[2] != assign[3] || assign[0] == assign[2] {
		t.Fatalf("clustering failed: %v", assign)
	}
}

func TestClusterEdgeCases(t *testing.T) {
	if Cluster(nil, 3, 5) != nil {
		t.Fatal("empty docs")
	}
	one := Cluster([]string{"solo"}, 5, 5)
	if len(one) != 1 || one[0] != 0 {
		t.Fatalf("one=%v", one)
	}
}

func newIndexedEngine(t *testing.T) (*sqlexec.Engine, *Indexer) {
	t.Helper()
	eng := sqlexec.NewEngine()
	ix := Attach(eng)
	if _, err := eng.Query(`CREATE TABLE docs (id VARCHAR, body VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	for i, body := range []string{
		"dispenser DISP-0001 at Berlin station is empty, refill required",
		"dispenser DISP-0002 works great, recently cleaned by Acme Corp",
		"temperature sensor normal, no problem detected",
	} {
		if _, err := eng.Query(fmt.Sprintf(`INSERT INTO docs VALUES ('d%d', '%s')`, i+1, body)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.CreateIndex("docs", "body", "id"); err != nil {
		t.Fatal(err)
	}
	return eng, ix
}

func TestSQLTextSearchJoinsWithRelationalData(t *testing.T) {
	eng, _ := newIndexedEngine(t)
	r, err := eng.Query(`SELECT d.id, ts.score FROM TABLE(TEXT_SEARCH('docs', 'dispenser empty')) ts JOIN docs d ON d.id = ts.k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].S != "d1" {
		t.Fatalf("rows=%v", r.Rows)
	}
}

func TestSQLEntitiesAutoExtracted(t *testing.T) {
	eng, _ := newIndexedEngine(t)
	r, err := eng.Query(`SELECT k, entity FROM TABLE(TEXT_ENTITIES('docs')) e WHERE e.etype = 'SENSOR' ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0][1].S != "DISP-0001" {
		t.Fatalf("rows=%v", r.Rows)
	}
}

func TestIncrementalIndexingOnCommit(t *testing.T) {
	eng, _ := newIndexedEngine(t)
	// New document is analyzed automatically at commit (§II-C).
	if _, err := eng.Query(`INSERT INTO docs VALUES ('d4', 'hurricane damaged the dispenser in Miami')`); err != nil {
		t.Fatal(err)
	}
	r, _ := eng.Query(`SELECT k FROM TABLE(TEXT_SEARCH('docs', 'hurricane')) s`)
	if len(r.Rows) != 1 || r.Rows[0][0].S != "d4" {
		t.Fatalf("rows=%v", r.Rows)
	}
	// Delete drops it from the index.
	if _, err := eng.Query(`DELETE FROM docs WHERE id = 'd4'`); err != nil {
		t.Fatal(err)
	}
	r, _ = eng.Query(`SELECT k FROM TABLE(TEXT_SEARCH('docs', 'hurricane')) s`)
	if len(r.Rows) != 0 {
		t.Fatalf("deleted doc still found: %v", r.Rows)
	}
}

func TestIndexSurvivesMerge(t *testing.T) {
	eng, _ := newIndexedEngine(t)
	if _, err := eng.Query(`MERGE DELTA OF docs`); err != nil {
		t.Fatal(err)
	}
	r, _ := eng.Query(`SELECT k FROM TABLE(TEXT_SEARCH('docs', 'dispenser')) s ORDER BY k`)
	if len(r.Rows) != 2 {
		t.Fatalf("post-merge rows=%v", r.Rows)
	}
	// And incremental indexing continues after the merge.
	eng.Query(`INSERT INTO docs VALUES ('d9', 'another dispenser report')`)
	r, _ = eng.Query(`SELECT k FROM TABLE(TEXT_SEARCH('docs', 'dispenser')) s`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows=%v", r.Rows)
	}
}

func TestSentimentScalarInSQL(t *testing.T) {
	eng, _ := newIndexedEngine(t)
	// d2 is praise; d3's "no problem" flips positive through negation; d1
	// ("empty") must score negative.
	r, err := eng.Query(`SELECT id FROM docs WHERE SENTIMENT(body) > 0 ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0][0].S != "d2" || r.Rows[1][0].S != "d3" {
		t.Fatalf("rows=%v", r.Rows)
	}
	r, _ = eng.Query(`SELECT id FROM docs WHERE SENTIMENT(body) < 0`)
	if len(r.Rows) != 1 || r.Rows[0][0].S != "d1" {
		t.Fatalf("negative rows=%v", r.Rows)
	}
}

func TestContainsTextScalar(t *testing.T) {
	eng, _ := newIndexedEngine(t)
	r, err := eng.Query(`SELECT id FROM docs WHERE CONTAINS_TEXT(body, 'refill required')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].S != "d1" {
		t.Fatalf("rows=%v", r.Rows)
	}
}

func TestSearchNeverReturnsInvisibleDocsProperty(t *testing.T) {
	// Property: whatever insert/delete sequence runs, search results only
	// reference live documents.
	eng := sqlexec.NewEngine()
	ix := Attach(eng)
	eng.Query(`CREATE TABLE d (id VARCHAR, body VARCHAR)`)
	ix.CreateIndex("d", "body", "id")
	i := 0
	f := func(del bool) bool {
		i++
		id := fmt.Sprintf("x%d", i)
		eng.Query(`INSERT INTO d VALUES (?, ?)`, value.String(id), value.String("common token payload "+id))
		if del {
			eng.Query(`DELETE FROM d WHERE id = ?`, value.String(id))
		}
		rows, err := ix.Search("d", "common")
		if err != nil {
			return false
		}
		live, _ := eng.Query(`SELECT COUNT(*) FROM d`)
		return int64(len(rows)) == live.Rows[0][0].I
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSearchWhileMerging: every document holds a token and a sensor name no
// other document does, and while one goroutine deletes documents, merges
// the table (each merge evicts what was deleted, so every position behind
// it shifts) and inserts new ones, a search for a token answers that
// document's key or nothing, and so does every extracted entity and every
// stored sentiment. Postings name rows by ID and are resolved through the
// snapshot the call reads; when they named positions and a merge rewrote
// them in place, this either answered another document's key or died of a
// concurrent map read and write.
func TestSearchWhileMerging(t *testing.T) {
	eng := sqlexec.NewEngine()
	ix := Attach(eng)
	mustQuery := func(sql string, args ...value.Value) {
		if _, err := eng.Query(sql, args...); err != nil {
			t.Error(err)
		}
	}
	body := func(i int) value.Value {
		return value.String(fmt.Sprintf("uq%dx great dispenser DISP-%04d report", i, i))
	}
	mustQuery(`CREATE TABLE d (id VARCHAR, body VARCHAR)`)
	const docs, rounds = 40, 60
	for i := 0; i < docs; i++ {
		mustQuery(`INSERT INTO d VALUES (?, ?)`, value.String(fmt.Sprint("k", i)), body(i))
	}
	if err := ix.CreateIndex("d", "body", "id"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i = (i + 7) % (docs + rounds) {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprint("k", i)
				rows, err := ix.Search("d", fmt.Sprintf("uq%dx", i))
				if err != nil || len(rows) > 1 || len(rows) == 1 && rows[0][0].S != key {
					t.Errorf("search for document %d's token: %v, %v", i, rows, err)
					return
				}
				ents, err := ix.Entities("d")
				if err != nil {
					t.Error(err)
					return
				}
				for _, e := range ents {
					if want := fmt.Sprintf("DISP-%04s", e[0].S[1:]); e[2].S != want {
						t.Errorf("document %s answers for entity %s", e[0].S, e[2].S)
						return
					}
				}
				ix.SentimentOf("d", key)
			}
		}(r)
	}
	for i := 0; i < rounds; i++ {
		mustQuery(`DELETE FROM d WHERE id = ?`, value.String(fmt.Sprint("k", i)))
		mustQuery(`MERGE DELTA OF d`)
		mustQuery(`INSERT INTO d VALUES (?, ?)`, value.String(fmt.Sprint("k", docs+i)), body(docs+i))
	}
	close(stop)
	wg.Wait()
	for i := 0; i < docs+rounds; i++ {
		rows, _ := ix.Search("d", fmt.Sprintf("uq%dx", i))
		if want := i >= rounds; (len(rows) == 1) != want {
			t.Fatalf("after the run, document %d found %d times", i, len(rows))
		}
	}
	if ents, _ := ix.Entities("d"); len(ents) != docs {
		t.Fatalf("after the run, %d entities for %d documents", len(ents), docs)
	}
}
