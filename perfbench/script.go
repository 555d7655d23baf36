package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/ops"
)

// class is a request class; each has its own latency metrics.
type class int

const (
	classCreate class = iota // POST /api/v1/sessions with no body
	classOp                  // POST /api/v1/sessions/{id}/ops?offset=&limit=
	classPage                // GET /api/v1/sessions/{id}?offset=&limit= or ?cursor=
)

var classNames = [...]string{"create", "op", "page"}

func (c class) String() string { return classNames[c] }

// request is one scripted request and the answer the oracle expects.
type request struct {
	class class
	// slot names the client's session the request addresses; a create
	// request (re)binds the slot to the session it creates.
	slot int
	// body is the op pipeline of an op request.
	body []byte
	// offset and limit select the window of op and page requests; a
	// cursor page instead follows the nextCursor of the slot's last
	// response, which the oracle resolves to the same window.
	offset, limit int
	cursor        bool
	want          answer
}

// script is one client's request stream: setup runs once before the
// timed window, loop is replayed cyclically during it. Every loop is
// built so that wrapping around is valid: a slot's first request in the
// loop either creates its session or sets its state absolutely.
type script struct {
	setup, loop []request
	slots       int
}

// gen builds scripts by running every request through the oracle, so
// each request's expected answer, and every choice that depends on the
// table a user sees (row counts, clicked nodes), come from the oracle.
type gen struct {
	o      *oracle
	rng    *rand.Rand
	sess   []*osess
	out    []request
	values corpusValues
	// decks hold the choices that shape a script's mix; see deal.
	decks map[string][]int
}

func newGen(o *oracle, values corpusValues, seed int64) *gen {
	return &gen{o: o, rng: rand.New(rand.NewSource(seed)), values: values, decks: map[string][]int{}}
}

// deal draws the next card of the named deck, refilled with a shuffled
// copy of cards when empty. Choices dealt rather than sampled occur in
// exact proportions, so scripts of every seed hold the same mix.
func (g *gen) deal(name string, cards ...int) int {
	d := g.decks[name]
	if len(d) == 0 {
		d = append(d, cards...)
		g.rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	}
	g.decks[name] = d[1:]
	return d[0]
}

// upTo returns the cards 0..n-1.
func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// create opens a new session slot.
func (g *gen) create() int {
	g.sess = append(g.sess, g.o.newSession())
	slot := len(g.sess) - 1
	g.out = append(g.out, request{class: classCreate, slot: slot})
	return slot
}

// recreate replaces a slot's session with a fresh one, as a user
// opening a new tab does.
func (g *gen) recreate(slot int) {
	g.sess[slot].s.Close()
	g.sess[slot] = g.o.newSession()
	g.out = append(g.out, request{class: classCreate, slot: slot})
}

// op applies a pipeline and returns its first window of limit rows.
func (g *gen) op(slot, limit int, pl ...ops.Op) error {
	// A single op goes as an object, as the web UI sends it; a batch as
	// an array.
	var v any = pl
	if len(pl) == 1 {
		v = pl[0]
	}
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	want, err := g.sess[slot].apply(pl, limit)
	if err != nil {
		return fmt.Errorf("script op %s: %w", body, err)
	}
	g.out = append(g.out, request{class: classOp, slot: slot, body: body, limit: limit, want: want})
	return nil
}

// page reads one window: the continuation of the last one by its
// cursor when byCursor holds and there is one, else a random offset.
func (g *gen) page(slot int, byCursor bool, limits ...int) error {
	s := g.sess[slot]
	if byCursor && s.hasNext() {
		want, err := s.window(s.offset+s.rows, s.limit)
		if err != nil {
			return err
		}
		g.out = append(g.out, request{class: classPage, slot: slot, cursor: true, want: want})
		return nil
	}
	limit := limits[g.deal("limit", upTo(len(limits))...)]
	// The offset is random within one of ten equal bands of the table,
	// the bands dealt in turn: stratified, so that every seed reads the
	// same spread of rows.
	offset := 0
	if s.total > 0 {
		band := g.deal("band", upTo(10)...)
		offset = (band*s.total + g.rng.Intn(s.total)) / 10
	}
	want, err := s.window(offset, limit)
	if err != nil {
		return err
	}
	g.out = append(g.out, request{class: classPage, slot: slot, offset: offset, limit: limit, want: want})
	return nil
}

// take returns the requests generated since the last take.
func (g *gen) take() []request {
	out := g.out
	g.out = nil
	return out
}

// quote renders a string literal of the filter grammar.
func quote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// corpusValues are the constants seeded filters draw from.
type corpusValues struct {
	titles, authors, institutions, conferences, countries []string
	yearMin, yearMax                                      int
}

func (o *oracle) values() (corpusValues, error) {
	labels := func(typ string) []string {
		ids := o.graph.NodesOfType(typ)
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = o.graph.Node(id).Label()
		}
		return out
	}
	v := corpusValues{
		titles:       labels("Papers"),
		authors:      labels("Authors"),
		institutions: labels("Institutions"),
		conferences:  labels("Conferences"),
		countries:    labels("Institutions: country"),
	}
	for i, y := range labels("Papers: year") {
		n, err := strconv.Atoi(y)
		if err != nil {
			return v, fmt.Errorf("oracle: year label %q: %w", y, err)
		}
		if i == 0 || n < v.yearMin {
			v.yearMin = n
		}
		if i == 0 || n > v.yearMax {
			v.yearMax = n
		}
	}
	return v, nil
}

func (g *gen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

// studyState is a table a long-lived warm-paging session sits on: the
// ops that reach it, and the presentation ops that toggle over it.
type studyState struct {
	path  ops.Pipeline
	sorts []ops.Op
	hides []string
}

// studyStates are the paper's study-task tables: Papers→Authors, and the
// queries of Figure 7 and Figure 1, dealt 6:2:2 (studyWeights).
var studyStates = []studyState{
	{
		path:  ops.Pipeline{ops.Open("Papers"), ops.Pivot("Authors")},
		sorts: []ops.Op{ops.SortByCount("Papers", true), ops.SortByCount("Papers", false), ops.SortByAttr("name", false)},
		hides: []string{"institution_id", "id", "Institutions"},
	},
	{
		path: ops.Pipeline{ops.Open("Conferences"), ops.Filter("acronym = 'SIGMOD'"), ops.Pivot("Papers"),
			ops.Filter("year > 2005"), ops.Pivot("Authors"), ops.FilterByNeighbor("Institutions", "country like '%Korea%'")},
		sorts: []ops.Op{ops.SortByCount("Papers", true), ops.SortByAttr("name", true)},
		hides: []string{"institution_id", "id"},
	},
	{
		path: ops.Pipeline{ops.Open("Papers"), ops.FilterByNeighbor("Paper_Keywords: keyword", "keyword like '%user%'"),
			ops.FilterByNeighbor("Conferences", "acronym = 'SIGMOD'")},
		sorts: []ops.Op{ops.SortByAttr("year", true), ops.SortByAttr("year", false), ops.SortByCount("Authors", true)},
		hides: []string{"page_start", "page_end", "Papers (referencing)"},
	},
}

var (
	pageLimits = []int{10, 50}
	opLimits   = []int{10, 50}
)

// warmPaging builds a client that holds one long-lived session per
// study state and mostly pages them, in bursts of one warm op over a
// state the server has already computed followed by nine page reads.
func warmPaging(g *gen, n int) (script, error) {
	var sc script
	for _, st := range studyStates {
		slot := g.create()
		for _, op := range st.path {
			if err := g.op(slot, 10, op); err != nil {
				return sc, err
			}
		}
	}
	sc.setup = g.take()
	// hidden is the column each long-lived session last hid, if its
	// current state is that hide.
	hidden := make([]string, len(studyStates))
	var fresh []int
	for len(g.out) < n {
		slot := g.deal("slot", studyWeights...)
		st := studyStates[slot]
		last := len(st.path) - 1
		limit := opLimits[g.deal("oplimit", upTo(len(opLimits))...)]
		key := fmt.Sprint(slot)
		target := slot
		var err error
		switch g.deal("warm", 0, 1, 2, 3) {
		case 0: // a sort toggle on the study table
			err = g.op(slot, limit, ops.Revert(last), st.sorts[g.deal("sort"+key, upTo(len(st.sorts))...)])
			hidden[slot] = ""
		case 1: // hide a column, or show the one hidden last
			if c := hidden[slot]; c != "" {
				err = g.op(slot, limit, ops.Show(c))
				hidden[slot] = ""
			} else {
				c := st.hides[g.deal("hide"+key, upTo(len(st.hides))...)]
				err = g.op(slot, limit, ops.Revert(last), ops.Hide(c))
				hidden[slot] = c
			}
		case 2: // revert to one of the states on the way to the table
			err = g.op(slot, limit, ops.Revert(g.deal("revert"+key, upTo(last+1)...)))
			hidden[slot] = ""
		case 3: // a new user reaches the same table in a fresh session
			if len(fresh) < 4 {
				target = g.create()
				fresh = append(fresh, target)
			} else {
				target = fresh[g.deal("fresh", upTo(len(fresh))...)]
				g.recreate(target)
			}
			err = g.op(target, limit, st.path...)
		}
		for i := 0; i < 9 && err == nil; i++ {
			err = g.page(target, g.deal("cursor", 0, 1) == 1, pageLimits...)
		}
		if err != nil {
			return sc, err
		}
	}
	sc.loop = g.take()
	sc.slots = len(g.sess)
	return sc, nil
}

// studyWeights deals the study states 6:2:2.
var studyWeights = []int{0, 0, 0, 0, 0, 0, 1, 1, 2, 2}

// step is one user action of an exploration: an op, then one or two
// page reads of its result.
func (g *gen) step(slot int, op ops.Op) error {
	if err := g.op(slot, opLimits[g.deal("oplimit", upTo(len(opLimits))...)], op); err != nil {
		return err
	}
	for i := g.deal("pages", 1, 2); i > 0; i-- {
		if err := g.page(slot, g.deal("cursor", 0, 1) == 1, pageLimits...); err != nil {
			return err
		}
	}
	return nil
}

// yearRange deals a year interval 1 to 8 years wide from the deck of
// all of them; narrow ones stay below the streaming gate when pivoted to
// Authors, wide ones cross it.
func (g *gen) yearRange() string {
	var ranges [][2]int
	for w := 0; w < 8; w++ {
		for lo := g.values.yearMin; lo+w <= g.values.yearMax; lo++ {
			ranges = append(ranges, [2]int{lo, lo + w})
		}
	}
	r := ranges[g.deal("range", upTo(len(ranges))...)]
	return fmt.Sprintf("year BETWEEN %d AND %d", r[0], r[1])
}

// explorations are incremental query constructions modeled on the six
// study tasks (paper Table 2), with constants drawn from the corpus so
// that nearly every op has a new signature.
var explorations = []func(g *gen, slot int) error{
	// Task 1: one paper's attributes.
	func(g *gen, slot int) error {
		return g.steps(slot, ops.Open("Papers"), ops.Filter("title = "+quote(g.pick(g.values.titles))))
	},
	// Task 2: one paper's keywords, through a see-all click.
	func(g *gen, slot int) error {
		if err := g.steps(slot, ops.Open("Papers"), ops.Filter("title = "+quote(g.pick(g.values.titles)))); err != nil {
			return err
		}
		if g.sess[slot].total == 0 {
			return nil
		}
		node, err := g.sess[slot].firstNode()
		if err != nil {
			return err
		}
		return g.step(slot, ops.Seeall(node, "Paper_Keywords: keyword"))
	},
	// Task 3: an author's papers from a year on.
	func(g *gen, slot int) error {
		return g.steps(slot, ops.Open("Papers"),
			ops.FilterByNeighbor("Authors", "name = "+quote(g.pick(g.values.authors))),
			ops.Filter(fmt.Sprintf("year >= %d", g.values.yearMin+g.rng.Intn(16))))
	},
	// Task 4: an institution's papers at one conference.
	func(g *gen, slot int) error {
		return g.steps(slot, ops.Open("Institutions"),
			ops.Filter("name = "+quote(g.pick(g.values.institutions))),
			ops.Pivot("Authors"), ops.Pivot("Papers"),
			ops.FilterByNeighbor("Conferences", "acronym = "+quote(g.pick(g.values.conferences))))
	},
	// Task 5: a country's institutions by researcher count.
	func(g *gen, slot int) error {
		return g.steps(slot, ops.Open("Institutions"),
			ops.Filter("country like "+quote("%"+g.pick(g.values.countries)+"%")),
			ops.SortByCount("Authors", true))
	},
	// Task 6: a conference's most prolific authors over a year range.
	func(g *gen, slot int) error {
		return g.steps(slot, ops.Open("Conferences"),
			ops.Filter("acronym = "+quote(g.pick(g.values.conferences))),
			ops.Pivot("Papers"), ops.Filter(g.yearRange()), ops.Pivot("Authors"),
			ops.SortByCount("Papers", true))
	},
	// The authors of a year range, pivoted from Papers.
	func(g *gen, slot int) error {
		return g.steps(slot, ops.Open("Papers"), ops.Filter(g.yearRange()), ops.Pivot("Authors"),
			ops.SortByCount("Papers", g.deal("desc", 0, 1) == 1))
	},
}

func (g *gen) steps(slot int, list ...ops.Op) error {
	for _, op := range list {
		if err := g.step(slot, op); err != nil {
			return err
		}
	}
	return nil
}

// coldExplore builds a client that loops over fresh sessions, each
// running one exploration with seeded constants. The explorations are
// taken in turn, so every script holds the same mix.
func coldExplore(g *gen, episodes int) (script, error) {
	var sc script
	for e := 0; e < episodes; e++ {
		slot := g.create()
		if err := explorations[e%len(explorations)](g, slot); err != nil {
			return sc, err
		}
		g.sess[slot].s.Close()
	}
	sc.loop = g.take()
	sc.slots = len(g.sess)
	return sc, nil
}

// outOfCore builds a client that loops over fresh sessions pivoting
// Papers→Authors→Papers→Keywords over year ranges; each op is followed
// by one 10-row read at a random, usually deep, offset. Windows stay
// small so that faults and spills, not the encoding of large cells,
// dominate. Every session runs the same five ops, so the median op is
// a pivot and does not sit between the cheap and the costly ones.
func outOfCore(g *gen, episodes int) (script, error) {
	var sc script
	for e := 0; e < episodes; e++ {
		slot := g.create()
		list := []ops.Op{ops.Open("Papers"), ops.Filter(g.yearRange()), ops.Pivot("Authors"),
			ops.Pivot("Papers"), ops.Pivot("Paper_Keywords: keyword")}
		for _, op := range list {
			if err := g.op(slot, 10, op); err != nil {
				return sc, err
			}
			if err := g.page(slot, false, 10); err != nil {
				return sc, err
			}
		}
		g.sess[slot].s.Close()
	}
	sc.loop = g.take()
	sc.slots = len(g.sess)
	return sc, nil
}
