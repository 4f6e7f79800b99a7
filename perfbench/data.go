package main

import (
	"fmt"
	"math/rand"
	"strings"

	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/value"
	"textjoin/internal/workload"
)

// This file generates every workload's inputs from the seed: the corpus,
// the relations, the distinct queries and the op sequence. Sizes are
// fixed per workload; the seed only chooses values, so runs at different
// seeds do comparable work.

// Workload names.
const (
	planWarm   = "plan_warm"
	fleetProbe = "fleet_probe"
	ingestMix  = "ingest_mix"
)

var workloadNames = []string{planWarm, fleetProbe, ingestMix}

// sizes are one workload's input sizes; tests shrink them.
type sizes struct {
	docs     int // corpus documents
	rows     int // rows of the large relations
	distinct int // literal combinations per query shape
}

func sizesFor(name string, small bool) sizes {
	var s sizes
	switch name {
	case planWarm:
		s = sizes{docs: 1000, rows: 3000, distinct: 6}
	case fleetProbe:
		s = sizes{docs: 2000, rows: 240, distinct: 6}
	default:
		s = sizes{docs: 2000, rows: 200}
	}
	if small {
		s.docs /= 4
		s.rows /= 4
		s.distinct /= 2
	}
	return s
}

// data is one workload's generated inputs.
type data struct {
	name    string
	corpus  *workload.Corpus
	tables  []*relation.Table
	queries []string // the distinct query texts (plan_warm, fleet_probe) or warm-up texts (ingest_mix)
	// students maps each student name to its year (ingest_mix checks).
	students map[string]int64
	names    []string // student names in table order (ingest_mix put authors)
}

var (
	areas    = []string{"ai", "db", "os", "networks"}
	depts    = []string{"cs", "ee", "me", "math", "bio", "chem"}
	sponsors = []string{"nsf", "darpa", "industry", "doe", "nih", "onr", "afosr", "eu"}
	// The generated corpus's common title topics: selections with many
	// hits, so searches on them scatter widely.
	commonTopics = []string{"query optimization", "knowledge representation", "machine learning", "distributed systems", "operating systems"}
)

func strCol(name string) relation.Column { return relation.Column{Name: name, Kind: value.KindString} }
func intCol(name string) relation.Column { return relation.Column{Name: name, Kind: value.KindInt} }

// namer hands out person and project names: corpus authors and title
// tags in a seeded order (they join with the corpus) and synthetic names
// (they do not). Relations are filled cell by cell from it, so every
// cell of their filter attributes holds the same number of rows and of
// joining names whatever the seed: the seed changes which names, not how
// many.
type namer struct {
	c                  *workload.Corpus
	authors, tags      []int
	nAuth, nTag, nSynt int
	prefix             string
}

func newNamer(rng *rand.Rand, c *workload.Corpus, prefix string) *namer {
	return &namer{c: c, authors: rng.Perm(len(c.Authors)), tags: rng.Perm(len(c.Tags)), prefix: prefix}
}

func (n *namer) author() string {
	a := n.c.Authors[n.authors[n.nAuth%len(n.authors)]]
	n.nAuth++
	return a
}

func (n *namer) tag() string {
	t := n.c.Tags[n.tags[n.nTag%len(n.tags)]]
	n.nTag++
	return t
}

func (n *namer) synthetic() string {
	s := fmt.Sprintf("%s%05d", n.prefix, n.nSynt)
	n.nSynt++
	return s
}

// coauthors returns an author and the author who co-wrote every one of
// its primary documents.
func (n *namer) coauthors() (string, string) {
	i := n.authors[n.nAuth%len(n.authors)]
	n.nAuth++
	return n.c.Authors[i], n.c.CoauthorOf(i)
}

// person returns an author for even j and a synthetic name for odd j.
func (n *namer) person(j int) string {
	if j%2 == 0 {
		return n.author()
	}
	return n.synthetic()
}

// facultyTable builds n faculty rows over the departments, half of each
// department's members corpus authors.
func facultyTable(nm *namer, n int) (*relation.Table, []string) {
	t := relation.NewTable("faculty", relation.MustSchema(strCol("fname"), strCol("dept")))
	var names []string
	for i := 0; i < n; i++ {
		name := nm.person(i / len(depts))
		names = append(names, name)
		t.MustInsert(relation.Tuple{value.String(name), value.String(depts[i%len(depts)])})
	}
	return t, names
}

func pick(rng *rand.Rand, pool []string) string { return pool[rng.Intn(len(pool))] }

// genData builds a workload's corpus, relations and query texts.
func genData(name string, seed int64, small bool) (*data, error) {
	sz := sizesFor(name, small)
	corpus := workload.NewCorpus(workload.CorpusConfig{Docs: sz.docs, Seed: seed})
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	d := &data{name: name, corpus: corpus}
	switch name {
	case planWarm:
		genPlanWarm(d, rng, sz)
	case fleetProbe:
		genFleetProbe(d, rng, sz)
	case ingestMix:
		genIngestMix(d, rng, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return d, nil
}

// genPlanWarm: relations of thousands of rows whose selective single-table
// predicates keep the oracle's cross product small, and eight shapes —
// Q1–Q4 style foreign joins plus 3-, 4- and 5-table chains.
func genPlanWarm(d *data, rng *rand.Rand, sz sizes) {
	c := d.corpus
	nm := newNamer(rng, c, "grad")
	faculty, fnames := facultyTable(newNamer(rng, c, "prof"), 24)
	// Students: one cell per (area, year, dept), each with the same rows.
	student := relation.NewTable("student", relation.MustSchema(
		strCol("name"), strCol("area"), intCol("year"), strCol("advisor"), strCol("dept")))
	cells := len(areas) * 6 * len(depts)
	for cell := 0; cell < cells; cell++ {
		for j := 0; j < sz.rows/cells; j++ {
			student.MustInsert(relation.Tuple{
				value.String(nm.person(j)),
				value.String(areas[cell%len(areas)]),
				value.Int(int64(1 + (cell/len(areas))%6)),
				value.String(fnames[(cell+j)%len(fnames)]),
				value.String(depts[cell/(len(areas)*6)]),
			})
		}
	}
	project := relation.NewTable("project", relation.MustSchema(
		strCol("pname"), strCol("member"), strCol("sponsor"), strCol("dept")))
	cells = len(sponsors) * len(depts)
	for cell := 0; cell < cells; cell++ {
		for j := 0; j < sz.rows*2/3/cells; j++ {
			pname := nm.synthetic()
			if j%2 == 0 {
				pname = nm.tag()
			}
			project.MustInsert(relation.Tuple{value.String(pname), value.String(nm.author()),
				value.String(sponsors[cell%len(sponsors)]), value.String(depts[cell/len(sponsors)])})
		}
	}
	d.tables = []*relation.Table{student, faculty, project}
	// Chain relations: row i of every rk carries the same key and group,
	// so filtering each table on one group keeps aligned chains.
	groups := sz.rows / 2
	for k := 0; k < 5; k++ {
		t := relation.NewTable(fmt.Sprintf("r%d", k), relation.MustSchema(
			strCol("id"), strCol("link"), strCol("grp"), strCol("name")))
		for i := 0; i < sz.rows; i++ {
			key := fmt.Sprintf("k%05d", i)
			t.MustInsert(relation.Tuple{value.String(key), value.String(key),
				value.String(fmt.Sprintf("g%04d", i%groups)), value.String(nm.author())})
		}
		d.tables = append(d.tables, t)
	}

	chain := func(n, g int) string {
		var from, conds []string
		for k := 0; k < n; k++ {
			from = append(from, fmt.Sprintf("r%d", k))
			if k > 0 {
				conds = append(conds, fmt.Sprintf("r%d.link = r%d.id", k-1, k))
			}
			conds = append(conds, fmt.Sprintf("r%d.grp = 'g%04d'", k, g%groups))
		}
		return fmt.Sprintf("select r0.id, mercury.docid from %s, mercury where %s and r0.name in mercury.author",
			strings.Join(from, ", "), strings.Join(conds, " and "))
	}
	shapes := []func(i int) string{
		func(i int) string { // Q1: topical selection joined with students
			return fmt.Sprintf("select student.name, mercury.docid from student, mercury where '%s' in mercury.title and student.name in mercury.author and student.year = %d and student.area = '%s'",
				commonTopics[i%5], 1+i%6, areas[i%4])
		},
		func(i int) string { // Q2: unselective word plus project names in titles
			return fmt.Sprintf("select project.pname, mercury.docid from project, mercury where 'text' in mercury.title and project.pname in mercury.title and project.sponsor = '%s' and project.dept = '%s'",
				sponsors[i%8], depts[i%6])
		},
		func(i int) string { // Q3: two foreign predicates on one relation
			return fmt.Sprintf("select project.pname, project.member, mercury.docid from project, mercury where project.pname in mercury.title and project.member in mercury.author and project.sponsor = '%s' and project.dept = '%s'",
				sponsors[(i+3)%8], depts[(i+2)%6])
		},
		func(i int) string { // Q4: students co-authoring with their advisors
			return fmt.Sprintf("select student.name, faculty.fname, mercury.docid from student, faculty, mercury where student.advisor = faculty.fname and student.name in mercury.author and faculty.fname in mercury.author and student.year = %d and student.area = '%s' and student.dept = '%s' and faculty.dept = '%s'",
				1+i%6, areas[(i+1)%4], depts[i%6], depts[i%6])
		},
		func(i int) string { return chain(3, i*groups/7+3) },
		func(i int) string { return chain(4, i*groups/7+5) },
		func(i int) string { return chain(5, i*groups/7+7) },
		func(i int) string { // long form: the abstract is not a short field
			return fmt.Sprintf("select student.name, mercury.abstract from student, mercury where '%s' in mercury.year and student.name in mercury.author and student.year = %d and student.area = '%s' and student.dept = '%s'",
				c.Years[i%4], 1+(i+2)%6, areas[i%4], depts[(i+3)%6])
		},
	}
	d.queries = distinctQueries(shapes, sz.distinct)
}

// genFleetProbe: small relations with many distinct join bindings and
// two foreign predicates on one relation, so the optimizer probes the
// fleet on six of the eight shapes — in one to four batched rounds, as
// the cost model prefers whenever batching is allowed. One long-form
// shape retrieves documents (Retrieve), one substitutes long-form
// searches after its probe, and two scatter shapes carry unselective
// selections.
func genFleetProbe(d *data, rng *rand.Rand, sz sizes) {
	c := d.corpus
	nm := newNamer(rng, c, "grad")
	// Students: one cell per (area, year). Even rows are corpus authors
	// advised by their co-author, odd rows synthetic students advised by
	// an author they never wrote with.
	student := relation.NewTable("student", relation.MustSchema(
		strCol("name"), strCol("area"), intCol("year"), strCol("advisor")))
	var coauthoring []string // the even-row students, in table order
	cells := len(areas) * 6
	for cell := 0; cell < cells; cell++ {
		for j := 0; j < sz.rows/cells; j++ {
			name, advisor := nm.synthetic(), nm.author()
			if j%2 == 0 {
				name, advisor = nm.coauthors()
				coauthoring = append(coauthoring, name)
			}
			student.MustInsert(relation.Tuple{value.String(name), value.String(areas[cell%len(areas)]),
				value.Int(int64(1 + cell/len(areas))), value.String(advisor)})
		}
	}
	// Projects: one cell per sponsor. Even rows are led by an even-row
	// student and named by the title tag of the student's documents, odd
	// rows are synthetic.
	tagOf := map[string]string{}
	for i, t := range c.Tags {
		tagOf[c.AuthorForTag(i)] = t
	}
	project := relation.NewTable("project", relation.MustSchema(
		strCol("pname"), strCol("member"), strCol("sponsor")))
	for cell, k := 0, 0; cell < len(sponsors); cell++ {
		for j := 0; j < sz.rows/2/len(sponsors); j++ {
			pname, member := nm.synthetic(), nm.author()
			if j%2 == 0 {
				member = coauthoring[k%len(coauthoring)]
				pname = tagOf[member]
				k++
			}
			project.MustInsert(relation.Tuple{value.String(pname), value.String(member), value.String(sponsors[cell])})
		}
	}
	faculty, _ := facultyTable(newNamer(rng, c, "prof"), 48)
	d.tables = []*relation.Table{student, project, faculty}
	shapes := []func(i int) string{
		func(i int) string { // Q4: students co-authoring with their advisors
			return fmt.Sprintf("select student.name, student.advisor, mercury.docid from student, mercury where student.name in mercury.author and student.advisor in mercury.author and student.year = %d", 1+i%6)
		},
		func(i int) string { // Q4 over several years: more bindings than one batch holds
			return fmt.Sprintf("select student.name, student.advisor, mercury.docid from student, mercury where student.name in mercury.author and student.advisor in mercury.author and student.year >= %d", 1+i%6)
		},
		func(i int) string { // Q4 for one area, long form
			return fmt.Sprintf("select student.name, mercury.abstract from student, mercury where student.name in mercury.author and student.advisor in mercury.author and student.area = '%s' and student.year = %d",
				areas[i%4], 1+(i+3)%6)
		},
		func(i int) string { // Q3: two foreign predicates
			return fmt.Sprintf("select project.pname, project.member, mercury.docid from project, mercury where project.pname in mercury.title and project.member in mercury.author and project.sponsor = '%s'", sponsors[i%8])
		},
		func(i int) string { // students leading projects: probes across a relational join
			return fmt.Sprintf("select student.name, project.pname, mercury.docid from student, project, mercury where student.name = project.member and student.name in mercury.author and project.pname in mercury.title and student.area = '%s' and student.year >= %d",
				areas[i%4], 1+2*(i/4))
		},
		func(i int) string { // long form of one year's documents
			return fmt.Sprintf("select student.name, mercury.abstract from student, mercury where '%s' in mercury.year and student.name in mercury.author and student.area = '%s' and student.year = %d",
				c.Years[i%4], areas[(i+1)%4], 1+i%6)
		},
		func(i int) string { // scatter: unselective word and two foreign predicates
			return fmt.Sprintf("select project.pname, mercury.docid from project, mercury where 'text' in mercury.title and project.pname in mercury.title and project.member in mercury.author and project.sponsor = '%s'", sponsors[(i+2)%8])
		},
		func(i int) string { // scatter: common topic phrase
			return fmt.Sprintf("select faculty.fname, mercury.docid from faculty, mercury where '%s' in mercury.title and faculty.fname in mercury.author and faculty.dept = '%s'",
				commonTopics[i%5], depts[i%6])
		},
	}
	d.queries = distinctQueries(shapes, sz.distinct)
}

// distinctQueries instantiates each shape with its first n literal
// combinations. The combinations do not depend on the seed, so every
// seed runs the same mix of shapes and selectivities over differently
// drawn data.
func distinctQueries(shapes []func(i int) string, n int) []string {
	var out []string
	for _, shape := range shapes {
		for i := 0; i < n; i++ {
			out = append(out, shape(i))
		}
	}
	return out
}

// genIngestMix: one student relation; the warm-up texts are the topical
// read queries over every (topic, year) pair the op sequence can draw.
func genIngestMix(d *data, rng *rand.Rand, sz sizes) {
	student := relation.NewTable("student", relation.MustSchema(
		strCol("name"), intCol("year"), strCol("dept")))
	d.students = map[string]int64{}
	nm := newNamer(rng, d.corpus, "grad")
	for i := 0; i < sz.rows; i++ {
		n, y := nm.person(i), int64(1+(i/2)%6)
		d.students[n] = y
		d.names = append(d.names, n)
		student.MustInsert(relation.Tuple{value.String(n), value.Int(y), value.String(depts[i%len(depts)])})
	}
	d.tables = []*relation.Table{student}
	for _, t := range mixTopics {
		for y := 1; y <= 6; y++ {
			d.queries = append(d.queries, topicQuery(t, y))
		}
	}
	// A read-back query's selection is a batch word; estimate one in
	// warm-up so the plan of the read-back shape is already sampled.
	d.queries = append(d.queries, readBackQuery(batchWord(-1)))
}

// The ingest_mix sequence. Each block is one ingest batch followed by
// readsPerBlock queries; every compactEvery blocks a compaction of every
// store runs. Writes are ordered behind in-flight queries and later
// queries wait for the ack (see barrier), so the visible state at every
// query is a function of the seed alone. A batch deletes the puts of the
// batch liveBatches back, so the live set stays the same size however
// many ops a run completes; reads look back checkBatches batches.
const (
	putsPerBatch  = 2
	liveBatches   = 3
	checkBatches  = 6
	readsPerBlock = 7
	compactEvery  = 20
	windowBlocks  = 200 // blocks in the deterministic metric window
)

var mixTopics = []string{"query optimization", "machine learning", "distributed systems", "belief update"}

func batchWord(b int) string { return fmt.Sprintf("lbw%06d", b+1) }

func topicQuery(topic string, year int) string {
	return fmt.Sprintf("select student.name, mercury.docid from student, mercury where '%s' in mercury.title and student.name in mercury.author and student.year = %d", topic, year)
}

func readBackQuery(word string) string {
	return fmt.Sprintf("select student.name, mercury.docid from student, mercury where '%s' in mercury.title and student.name in mercury.author", word)
}

// Op kinds.
const (
	opQuery = iota
	opIngest
	opCompact
)

// op is one step of a workload's sequence.
type op struct {
	kind   int
	q      int // distinct-query index (plan_warm, fleet_probe), -1 otherwise
	sql    string
	ingest []texservice.IngestOp
	check  *rywCheck // ingest_mix read-your-writes expectation
}

// String renders the op for sequence comparisons.
func (o op) String() string {
	switch o.kind {
	case opIngest:
		var b strings.Builder
		b.WriteString("ingest")
		for _, x := range o.ingest {
			b.WriteString(" " + x.Kind + ":" + x.ExtID)
		}
		return b.String()
	case opCompact:
		return "compact"
	}
	return "query " + o.sql
}

// rywCheck is the read-your-writes expectation of one ingest_mix query:
// the docids that must appear (acked puts the query selects) and those
// that must not (acked deletes). exact also forbids any other docid.
type rywCheck struct {
	present []string
	absent  []string
	exact   bool
}

// sequence yields a workload's ops in order. Calls must be serialized;
// the barrier hands ops out in index order under its lock.
type sequence interface {
	next() op
}

// cycleSeq repeats a seeded permutation of the distinct queries (each
// twice per cycle).
type cycleSeq struct {
	order []int
	i     int
	sqls  []string
}

func newCycleSeq(seed int64, queries []string) *cycleSeq {
	rng := rand.New(rand.NewSource(seed*31 + 7))
	order := make([]int, 0, 2*len(queries))
	for r := 0; r < 2; r++ {
		order = append(order, rng.Perm(len(queries))...)
	}
	return &cycleSeq{order: order, sqls: queries}
}

func (s *cycleSeq) next() op {
	q := s.order[s.i%len(s.order)]
	s.i++
	return op{kind: opQuery, q: q, sql: s.sqls[q]}
}

// mixDoc is one put of the ingest_mix model.
type mixDoc struct {
	ext, author, topic string
	live               bool
}

// mixSeq generates the ingest_mix sequence and tracks the acked state
// each query will observe.
type mixSeq struct {
	rng     *rand.Rand
	d       *data
	byBatch map[int][]*mixDoc // the last checkBatches batches' puts
	block   int               // blocks emitted
	pos     int               // position inside the current block; 0 = the write
	compact bool
	nextDoc int
}

func newMixSeq(seed int64, d *data) *mixSeq {
	return &mixSeq{rng: rand.New(rand.NewSource(seed*131 + 3)), d: d, byBatch: map[int][]*mixDoc{}}
}

// windowOps is the number of ops in the deterministic window: windowBlocks
// blocks plus the compactions among them.
func mixWindowOps() int {
	return windowBlocks*(1+readsPerBlock) + windowBlocks/compactEvery
}

func (s *mixSeq) next() op {
	if s.compact {
		s.compact = false
		return op{kind: opCompact, q: -1}
	}
	if s.pos == 0 {
		s.pos = 1
		return s.write()
	}
	o := s.read()
	s.pos++
	if s.pos > readsPerBlock {
		s.pos = 0
		s.block++
		s.compact = s.block%compactEvery == 0
	}
	return o
}

// write emits block s.block's batch: fresh puts authored by students, and
// deletes of the puts liveBatches batches back.
func (s *mixSeq) write() op {
	b := s.block
	word := batchWord(b)
	var ops []texservice.IngestOp
	for i := 0; i < putsPerBatch; i++ {
		doc := &mixDoc{
			ext:    fmt.Sprintf("LIVE-%06d", s.nextDoc),
			author: pick(s.rng, s.d.names),
			topic:  pick(s.rng, mixTopics),
			live:   true,
		}
		s.nextDoc++
		s.byBatch[b] = append(s.byBatch[b], doc)
		ops = append(ops, texservice.IngestOp{Kind: texservice.IngestPut, ExtID: doc.ext, Fields: map[string]string{
			"title":    word + " " + doc.topic + " live report",
			"author":   doc.author,
			"abstract": "live ingest document",
			"year":     "1996",
		}})
	}
	for _, doc := range s.byBatch[b-liveBatches] {
		doc.live = false
		ops = append(ops, texservice.IngestOp{Kind: texservice.IngestDelete, ExtID: doc.ext})
	}
	delete(s.byBatch, b-checkBatches)
	return op{kind: opIngest, q: -1, ingest: ops}
}

// read emits a read-back of a recent batch or a topical query, with the
// expectation the acked state implies.
func (s *mixSeq) read() op {
	if s.rng.Intn(2) == 0 {
		b := s.block - s.rng.Intn(checkBatches)
		if b < 0 {
			b = 0
		}
		chk := &rywCheck{exact: true}
		for _, doc := range s.byBatch[b] {
			if doc.live {
				chk.present = append(chk.present, doc.ext)
			} else {
				chk.absent = append(chk.absent, doc.ext)
			}
		}
		return op{kind: opQuery, q: -1, sql: readBackQuery(batchWord(b)), check: chk}
	}
	topic := pick(s.rng, mixTopics)
	year := 1 + s.rng.Intn(6)
	chk := &rywCheck{}
	for b := s.block - checkBatches + 1; b <= s.block; b++ {
		for _, doc := range s.byBatch[b] {
			if doc.topic != topic || s.d.students[doc.author] != int64(year) {
				continue
			}
			if doc.live {
				chk.present = append(chk.present, doc.ext)
			} else {
				chk.absent = append(chk.absent, doc.ext)
			}
		}
	}
	return op{kind: opQuery, q: -1, sql: topicQuery(topic, year), check: chk}
}
