package translate

import (
	"testing"

	"repro/internal/relational"
	"repro/internal/tgm"
	"repro/internal/value"
)

// figure3DB builds the paper's Figure 3 schema (7 relations, 7 foreign
// keys) with a handful of rows mirroring Figure 5's instance excerpt.
func figure3DB(t testing.TB) *relational.DB {
	t.Helper()
	db := relational.NewDB()
	db.MustCreateTable(relational.Schema{
		Name: "Conferences",
		Columns: []relational.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "acronym", Type: value.KindString},
			{Name: "title", Type: value.KindString},
		},
		PrimaryKey: []string{"id"},
	})
	db.MustCreateTable(relational.Schema{
		Name: "Institutions",
		Columns: []relational.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "name", Type: value.KindString},
			{Name: "country", Type: value.KindString},
		},
		PrimaryKey: []string{"id"},
	})
	db.MustCreateTable(relational.Schema{
		Name: "Authors",
		Columns: []relational.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "name", Type: value.KindString},
			{Name: "institution_id", Type: value.KindInt},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []relational.ForeignKey{
			{Col: "institution_id", RefTable: "Institutions", RefCol: "id"},
		},
	})
	db.MustCreateTable(relational.Schema{
		Name: "Papers",
		Columns: []relational.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "conference_id", Type: value.KindInt},
			{Name: "title", Type: value.KindString},
			{Name: "year", Type: value.KindInt},
			{Name: "page_start", Type: value.KindInt},
			{Name: "page_end", Type: value.KindInt},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []relational.ForeignKey{
			{Col: "conference_id", RefTable: "Conferences", RefCol: "id"},
		},
	})
	db.MustCreateTable(relational.Schema{
		Name: "Paper_Authors",
		Columns: []relational.Column{
			{Name: "paper_id", Type: value.KindInt},
			{Name: "author_id", Type: value.KindInt},
			{Name: "order", Type: value.KindInt},
		},
		PrimaryKey: []string{"paper_id", "author_id"},
		ForeignKeys: []relational.ForeignKey{
			{Col: "paper_id", RefTable: "Papers", RefCol: "id"},
			{Col: "author_id", RefTable: "Authors", RefCol: "id"},
		},
	})
	db.MustCreateTable(relational.Schema{
		Name: "Paper_References",
		Columns: []relational.Column{
			{Name: "paper_id", Type: value.KindInt},
			{Name: "ref_paper_id", Type: value.KindInt},
		},
		PrimaryKey: []string{"paper_id", "ref_paper_id"},
		ForeignKeys: []relational.ForeignKey{
			{Col: "paper_id", RefTable: "Papers", RefCol: "id"},
			{Col: "ref_paper_id", RefTable: "Papers", RefCol: "id"},
		},
	})
	db.MustCreateTable(relational.Schema{
		Name: "Paper_Keywords",
		Columns: []relational.Column{
			{Name: "paper_id", Type: value.KindInt},
			{Name: "keyword", Type: value.KindString},
		},
		PrimaryKey: []string{"paper_id", "keyword"},
		ForeignKeys: []relational.ForeignKey{
			{Col: "paper_id", RefTable: "Papers", RefCol: "id"},
		},
	})

	ins := func(table string, rows ...[]value.V) {
		tb, err := db.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if _, err := tb.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	ins("Conferences",
		[]value.V{value.Int(1), value.Str("SIGMOD"), value.Str("ACM SIGMOD Conference")},
		[]value.V{value.Int(2), value.Str("KDD"), value.Str("ACM SIGKDD Conference")},
		[]value.V{value.Int(3), value.Str("CHI"), value.Str("ACM CHI Conference")},
	)
	ins("Institutions",
		[]value.V{value.Int(1), value.Str("Univ. of Michigan"), value.Str("USA")},
		[]value.V{value.Int(2), value.Str("Seoul National Univ."), value.Str("South Korea")},
		[]value.V{value.Int(3), value.Str("Univ. of Washington"), value.Str("USA")},
	)
	ins("Authors",
		[]value.V{value.Int(1), value.Str("H. V. Jagadish"), value.Int(1)},
		[]value.V{value.Int(2), value.Str("Arnab Nandi"), value.Int(1)},
		[]value.V{value.Int(3), value.Str("Jeff Heer"), value.Int(3)},
		[]value.V{value.Int(4), value.Str("Minsuk Kahng"), value.Int(2)},
	)
	ins("Papers",
		[]value.V{value.Int(1), value.Int(1), value.Str("Making database systems usable"), value.Int(2007), value.Int(13), value.Int(24)},
		[]value.V{value.Int(2), value.Int(1), value.Str("Schema-free SQL"), value.Int(2014), value.Int(1051), value.Int(1062)},
		[]value.V{value.Int(3), value.Int(3), value.Str("Wrangler: interactive visual..."), value.Int(2011), value.Int(3363), value.Int(3372)},
		[]value.V{value.Int(4), value.Int(2), value.Str("Collaborative filtering"), value.Int(2009), value.Int(447), value.Int(456)},
	)
	ins("Paper_Authors",
		[]value.V{value.Int(1), value.Int(1), value.Int(1)},
		[]value.V{value.Int(1), value.Int(2), value.Int(2)},
		[]value.V{value.Int(2), value.Int(1), value.Int(1)},
		[]value.V{value.Int(3), value.Int(3), value.Int(1)},
		[]value.V{value.Int(4), value.Int(4), value.Int(1)},
	)
	ins("Paper_References",
		[]value.V{value.Int(2), value.Int(1)}, // Schema-free SQL cites Making db usable
		[]value.V{value.Int(3), value.Int(1)},
		[]value.V{value.Int(4), value.Int(3)},
	)
	ins("Paper_Keywords",
		[]value.V{value.Int(1), value.Str("usability")},
		[]value.V{value.Int(1), value.Str("user interface")},
		[]value.V{value.Int(2), value.Str("user interface")},
		[]value.V{value.Int(3), value.Str("data cleaning")},
	)
	if err := db.CheckForeignKeys(); err != nil {
		t.Fatal(err)
	}
	return db
}

func translateFig3(t testing.TB, opts Options) *Result {
	t.Helper()
	res, err := Translate(figure3DB(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestClassification(t *testing.T) {
	res := translateFig3(t, Options{})
	classes := map[string]RelationClass{}
	for _, c := range res.Relations {
		classes[c.Table] = c.Class
	}
	want := map[string]RelationClass{
		"Conferences":      ClassEntity,
		"Institutions":     ClassEntity,
		"Authors":          ClassEntity,
		"Papers":           ClassEntity,
		"Paper_Authors":    ClassRelationship,
		"Paper_References": ClassRelationship,
		"Paper_Keywords":   ClassMultiValued,
	}
	for table, wc := range want {
		if classes[table] != wc {
			t.Errorf("%s classified as %v, want %v", table, classes[table], wc)
		}
	}
	if len(res.Relations) != 7 {
		t.Errorf("relations = %d", len(res.Relations))
	}
}

func TestSchemaGraphShape(t *testing.T) {
	res := translateFig3(t, Options{})
	g := res.Schema
	// Figure 4 node types (without categorical): 4 entities + keyword.
	if got := len(g.NodeTypes()); got != 5 {
		t.Errorf("node types = %d, want 5", got)
	}
	if nt := g.NodeType("Paper_Keywords: keyword"); nt == nil || nt.Kind != tgm.NodeMultiValued {
		t.Errorf("keyword node type = %+v", nt)
	}
	// Edge types: FK edges ×2 (Authors→Institutions, Papers→Conferences)
	// = 4, Paper_Authors ×2 = 2, Paper_References (self) ×2 = 2,
	// keyword ×2 = 2 → 10 directed edge types.
	if got := len(g.EdgeTypes()); got != 10 {
		t.Errorf("edge types = %d, want 10", got)
	}
	// Label heuristics.
	if g.NodeType("Papers").Label != "title" {
		t.Errorf("Papers label = %q", g.NodeType("Papers").Label)
	}
	if g.NodeType("Authors").Label != "name" {
		t.Errorf("Authors label = %q", g.NodeType("Authors").Label)
	}
	if g.NodeType("Conferences").Label != "acronym" {
		t.Errorf("Conferences label = %q", g.NodeType("Conferences").Label)
	}
}

func TestSelfRelationshipDirections(t *testing.T) {
	res := translateFig3(t, Options{})
	fwd := res.Schema.EdgeType("Paper_References")
	rev := res.Schema.EdgeType("Paper_References_rev")
	if fwd == nil || rev == nil {
		t.Fatal("self-relationship edge types missing")
	}
	if fwd.Label != "Papers (referenced)" || rev.Label != "Papers (referencing)" {
		t.Errorf("labels = %q / %q", fwd.Label, rev.Label)
	}
	if fwd.Reverse != rev.Name || rev.Reverse != fwd.Name {
		t.Error("reverse linkage broken")
	}
	// Instance: paper 1 is referenced by papers 2 and 3.
	p1, _ := res.NodeIDForPK("Papers", value.Int(1))
	referencing := res.Instance.Neighbors(p1, "Paper_References_rev")
	if len(referencing) != 2 {
		t.Errorf("papers referencing p1 = %d, want 2", len(referencing))
	}
	// Paper 2 references paper 1.
	p2, _ := res.NodeIDForPK("Papers", value.Int(2))
	refs := res.Instance.Neighbors(p2, "Paper_References")
	if len(refs) != 1 || refs[0] != p1 {
		t.Errorf("p2 references = %v", refs)
	}
}

func TestInstanceCounts(t *testing.T) {
	res := translateFig3(t, Options{})
	s := res.Instance.ComputeStats()
	// 3 confs + 3 insts + 4 authors + 4 papers + 3 distinct keywords = 17.
	if s.Nodes != 17 {
		t.Errorf("nodes = %d, want 17", s.Nodes)
	}
	if s.NodesByType["Paper_Keywords: keyword"] != 3 {
		t.Errorf("keyword nodes = %d", s.NodesByType["Paper_Keywords: keyword"])
	}
	// Directed edges: FK Authors→Inst 4×2 + Papers→Conf 4×2 +
	// Paper_Authors 5×2 + Paper_References 3×2 + keywords 4×2 = 40.
	if s.Edges != 40 {
		t.Errorf("edges = %d, want 40", s.Edges)
	}
}

func TestNeighborLookups(t *testing.T) {
	res := translateFig3(t, Options{})
	g := res.Instance
	p1, ok := res.NodeIDForPK("Papers", value.Int(1))
	if !ok {
		t.Fatal("paper 1 not found")
	}
	// Authors of paper 1 via the m:n edge.
	authors := g.Neighbors(p1, "Paper_Authors_rev")
	if len(authors) != 0 {
		// direction check below; p1 is source in Paper_Authors
		t.Logf("note: Paper_Authors_rev from paper = %v", authors)
	}
	aus := g.Neighbors(p1, "Paper_Authors")
	if len(aus) != 2 {
		t.Fatalf("paper 1 authors = %d, want 2", len(aus))
	}
	names := map[string]bool{}
	for _, a := range aus {
		names[g.Node(a).Label()] = true
	}
	if !names["H. V. Jagadish"] || !names["Arnab Nandi"] {
		t.Errorf("author names = %v", names)
	}
	// Reverse: papers by Jagadish.
	j, _ := res.NodeIDForPK("Authors", value.Int(1))
	papers := g.Neighbors(j, "Paper_Authors_rev")
	if len(papers) != 2 {
		t.Errorf("Jagadish papers = %d, want 2", len(papers))
	}
	// Keyword edges: papers with "user interface".
	kw, ok := g.FindNode("Paper_Keywords: keyword", "keyword", value.Str("user interface"))
	if !ok {
		t.Fatal("keyword node missing")
	}
	ps := g.Neighbors(kw.ID, "Papers→Paper_Keywords: keyword_rev")
	if len(ps) != 2 {
		t.Errorf("papers with 'user interface' = %d, want 2", len(ps))
	}
}

func TestCategoricalAttributes(t *testing.T) {
	res := translateFig3(t, Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	g := res.Schema
	if nt := g.NodeType("Papers: year"); nt == nil || nt.Kind != tgm.NodeCategorical {
		t.Fatalf("Papers: year = %+v", nt)
	}
	if nt := g.NodeType("Institutions: country"); nt == nil {
		t.Fatal("Institutions: country missing")
	}
	if len(res.CategoricalLifted) != 2 {
		t.Errorf("lifted = %v", res.CategoricalLifted)
	}
	// Instance: 4 distinct years (2007, 2014, 2011, 2009) and 2 countries.
	inst := res.Instance
	if got := len(inst.NodesOfType("Papers: year")); got != 4 {
		t.Errorf("year nodes = %d", got)
	}
	if got := len(inst.NodesOfType("Institutions: country")); got != 2 {
		t.Errorf("country nodes = %d", got)
	}
	// Edges: USA institutions.
	usa, ok := inst.FindNode("Institutions: country", "country", value.Str("USA"))
	if !ok {
		t.Fatal("USA node missing")
	}
	insts := inst.Neighbors(usa.ID, "Institutions→Institutions: country_rev")
	if len(insts) != 2 {
		t.Errorf("USA institutions = %d, want 2", len(insts))
	}
}

// TestCategoricalNodeIDsDeterministic: two translations of one
// database number the categorical nodes identically, whatever the
// order the lifted tables are visited in.
func TestCategoricalNodeIDsDeterministic(t *testing.T) {
	opts := Options{CategoricalAttrs: []string{"Papers.year", "Institutions.country"}}
	want := translateFig3(t, opts).Instance
	for i := 0; i < 20; i++ {
		got := translateFig3(t, opts).Instance
		for _, nt := range []string{"Papers: year", "Institutions: country"} {
			w, g := want.NodesOfType(nt), got.NodesOfType(nt)
			if len(g) != len(w) {
				t.Fatalf("%s: %d nodes, want %d", nt, len(g), len(w))
			}
			for k := range w {
				if g[k] != w[k] {
					t.Fatalf("translation %d: %s node %d has ID %d, want %d", i, nt, k, g[k], w[k])
				}
			}
		}
	}
}

func TestAutoCategorical(t *testing.T) {
	res := translateFig3(t, Options{AutoCategorical: true, MaxCategoricalCardinality: 5})
	// Everything low-cardinality and non-key becomes categorical,
	// including Papers.year and Institutions.country.
	found := map[string]bool{}
	for _, tc := range res.CategoricalLifted {
		found[tc] = true
	}
	if !found["Papers.year"] || !found["Institutions.country"] {
		t.Errorf("auto-lifted = %v", res.CategoricalLifted)
	}
}

func TestCategoricalValidation(t *testing.T) {
	if _, err := Translate(figure3DB(t), Options{CategoricalAttrs: []string{"nodot"}}); err == nil {
		t.Error("malformed categorical accepted")
	}
	if _, err := Translate(figure3DB(t), Options{CategoricalAttrs: []string{"Nope.year"}}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := Translate(figure3DB(t), Options{CategoricalAttrs: []string{"Papers.nope"}}); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := Translate(figure3DB(t), Options{CategoricalAttrs: []string{"Papers.id"}}); err == nil {
		t.Error("key column accepted as categorical")
	}
	if _, err := Translate(figure3DB(t), Options{CategoricalAttrs: []string{"Papers.conference_id"}}); err == nil {
		t.Error("FK column accepted as categorical")
	}
}

func TestLabelOverride(t *testing.T) {
	res := translateFig3(t, Options{Labels: map[string]string{"Conferences": "title"}})
	if got := res.Schema.NodeType("Conferences").Label; got != "title" {
		t.Errorf("override label = %q", got)
	}
}

func TestNoEntities(t *testing.T) {
	db := relational.NewDB()
	if _, err := Translate(db, Options{}); err == nil {
		t.Error("empty database should fail")
	}
}

func TestNodeIDForPK(t *testing.T) {
	res := translateFig3(t, Options{})
	if _, ok := res.NodeIDForPK("Papers", value.Int(99)); ok {
		t.Error("missing PK should miss")
	}
	if _, ok := res.NodeIDForPK("Nope", value.Int(1)); ok {
		t.Error("missing table should miss")
	}
	if _, ok := res.NodeIDForPK("Paper_Keywords: keyword", value.Str("usability")); ok {
		t.Error("non-entity type should miss")
	}
}
