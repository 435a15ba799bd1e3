package sched

// reacher answers "can src reach a target" over graphs of up to n nodes,
// one query after another, without allocating: visited and target sets
// are arrays stamped with the query's epoch, so starting a query forgets
// the last one in O(1), and the DFS stack is reused.
type reacher struct {
	seen, goal []uint32
	epoch      uint32
	stack      []int
}

func newReacher(n int) *reacher {
	return &reacher{seen: make([]uint32, n), goal: make([]uint32, n)}
}

// begin starts a query with no targets.
func (r *reacher) begin() { r.epoch++ }

// target adds v to the current query's targets.
func (r *reacher) target(v int) { r.goal[v] = r.epoch }

// reaches reports whether a path of one or more edges leads from src to a
// target of the current query, stopping at the first one found. succ is
// the graph's adjacency; with a non-nil scope the walk only enters nodes v
// with scope[v] == in.
func reaches[T int | int32](r *reacher, succ func(int) []T, src int, scope []int, in int) bool {
	r.stack = append(r.stack[:0], src)
	for len(r.stack) > 0 {
		u := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		for _, tv := range succ(u) {
			v := int(tv)
			if r.seen[v] == r.epoch || (scope != nil && scope[v] != in) {
				continue
			}
			if r.goal[v] == r.epoch {
				return true
			}
			r.seen[v] = r.epoch
			r.stack = append(r.stack, v)
		}
	}
	return false
}
