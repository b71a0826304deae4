// Package staleignore carries a scoped, reasoned ignore directive on a
// line where its analyzer finds nothing; the directive itself must be
// reported as stale.
package staleignore

// Sum adds the values in slice order.
func Sum(xs []int) int {
	total := 0
	for _, v := range xs { //dtbvet:ignore determinism -- ranges a slice, so there is nothing to suppress
		total += v
	}
	return total
}
