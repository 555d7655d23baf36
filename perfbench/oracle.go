package main

import (
	"context"
	"fmt"

	"repro/internal/etable"
	"repro/internal/ops"
	"repro/internal/session"
	"repro/internal/snapshot"
	"repro/internal/tgm"
)

// answer is what a table response must carry: the table's row count and
// the canonical hash of the response (see jsonhash.go).
type answer struct {
	total int
	hash  uint64
}

// resultAnswer hashes the response the server should render for a
// window computed in process: the same value tree as its JSON, with the
// fields the oracle does not predict left out.
func resultAnswer(pattern string, res *etable.Result) answer {
	var cols array
	for _, c := range res.Columns {
		var o object
		o.field("name", hstr(c.Name))
		o.field("kind", hstr(c.Kind.String()))
		cols.add(o.value())
	}
	var rows array
	for _, r := range res.Rows {
		var cells array
		for ci := range res.Columns {
			cell := &r.Cells[ci]
			var c object
			// The server renders a value only for base columns and
			// references only for the others.
			if res.Columns[ci].Kind == etable.ColBase {
				c.field("value", hstr(cell.Value.Format()))
			} else {
				var refs array
				for _, ref := range cell.Refs {
					var ro object
					ro.field("id", hint(int64(ref.ID)))
					ro.field("label", hstr(ref.Label))
					refs.add(ro.value())
				}
				c.field("refs", refs.value())
			}
			c.field("count", hint(int64(cell.Count())))
			cells.add(c.value())
		}
		var row object
		row.field("node", hint(int64(r.Node)))
		row.field("label", hstr(r.Label))
		row.field("cells", cells.value())
		rows.add(row.value())
	}
	var st object
	st.field("pattern", hstr(pattern))
	st.field("columns", cols.value())
	st.field("rows", rows.value())
	st.field("totalRows", hint(int64(res.Total())))
	st.field("offset", hint(int64(res.Offset)))
	return answer{total: res.Total(), hash: st.value().h}
}

// oracle computes the expected answer of every scripted request with
// in-process sessions over an eager load of the served snapshot. Its
// sessions have no row cap and no spill policy, so a spilled page the
// server returns is checked against the in-memory one.
type oracle struct {
	schema *tgm.SchemaGraph
	graph  *tgm.InstanceGraph
	cache  *etable.Cache
}

func newOracle(path string) (*oracle, error) {
	snap, err := snapshot.Load(path)
	if err != nil {
		return nil, fmt.Errorf("oracle: loading %s: %w", path, err)
	}
	return &oracle{schema: snap.Schema, graph: snap.Graph, cache: etable.NewCache(etable.DefaultCacheEntries)}, nil
}

// osess is one oracle session and the window its last response showed.
type osess struct {
	s *session.Session
	// offset, rows and limit describe the last window returned; a
	// cursor request continues at offset+rows with the same limit.
	offset, rows, limit int
	total               int
}

func (o *oracle) newSession() *osess {
	return &osess{s: session.NewShared(o.schema, o.graph, o.cache)}
}

// hasNext reports whether the last response carried a continuation
// cursor.
func (s *osess) hasNext() bool { return s.limit > 0 && s.offset+s.rows < s.total }

// apply runs an op pipeline and renders its first window.
func (s *osess) apply(pl ops.Pipeline, limit int) (answer, error) {
	if err := s.s.ApplyPipelineCtx(context.Background(), pl); err != nil {
		return answer{}, err
	}
	return s.window(0, limit)
}

// window renders [offset, offset+limit) of the current table.
func (s *osess) window(offset, limit int) (answer, error) {
	res, err := s.s.WindowCtx(context.Background(), offset, limit)
	if err != nil {
		return answer{}, err
	}
	s.offset, s.rows, s.limit, s.total = res.Offset, len(res.Rows), limit, res.Total()
	return resultAnswer(s.s.Pattern().String(), res), nil
}

// firstNode returns the node of the current table's first row.
func (s *osess) firstNode() (int64, error) {
	res, err := s.s.WindowCtx(context.Background(), 0, 1)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) == 0 {
		return 0, fmt.Errorf("oracle: table %s is empty", s.s.Pattern())
	}
	return int64(res.Rows[0].Node), nil
}
