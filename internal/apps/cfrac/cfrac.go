// Package cfrac is the Cfrac stand-in: it factors integers with the
// continued-fraction method (Morrison–Brillhart), using the
// multiple-precision naturals of internal/apps/mlib, whose limbs live
// on the simulated heap. Like the C original — a classic allocation
// benchmark — almost every intermediate is a short-lived heap object:
// convergent numerators, products, residues, exponent vectors and
// Gaussian-elimination rows, nearly all dead moments after creation.
//
// Method sketch: expand sqrt(kN) as a continued fraction; the
// recurrence yields residues Q_i < 2·sqrt(kN) with
// A_{i-1}^2 ≡ (-1)^i · Q_i (mod N). Q_i values that factor completely
// over a small prime base give relations; a GF(2) dependency among
// relation exponent vectors yields X^2 ≡ Y^2 (mod N) and
// gcd(X−Y, N) is then a factor with good probability.
package cfrac

import (
	"fmt"

	"github.com/dtbgc/dtbgc/internal/apps/mlib"
	"github.com/dtbgc/dtbgc/internal/mheap"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// primesUpTo returns the primes below n (Go-side static table, like
// the C program's).
func primesUpTo(n int) []uint64 {
	sieve := make([]bool, n)
	var primes []uint64
	for p := 2; p < n; p++ {
		if sieve[p] {
			continue
		}
		primes = append(primes, uint64(p))
		// p*p >= n leaves nothing to cross off; testing it by division
		// keeps p*p from wrapping where int is 32 bits wide.
		if p > (n-1)/p {
			continue
		}
		for q := p * p; q < n; q += p {
			sieve[q] = true
		}
	}
	return primes
}

// legendre computes the Legendre symbol (a|p) for odd prime p via
// Euler's criterion with uint64 modular exponentiation.
func legendre(a, p uint64) int {
	a %= p
	if a == 0 {
		return 0
	}
	r := powMod(a, (p-1)/2, p)
	if r == 1 {
		return 1
	}
	return -1
}

func mulMod64(a, b, m uint64) uint64 {
	// Schoolbook 128-bit via splitting; m < 2^63 in our use.
	var res uint64
	a %= m
	for b > 0 {
		if b&1 == 1 {
			res = (res + a) % m
		}
		a = (a + a) % m
		b >>= 1
	}
	return res
}

func powMod(a, e, m uint64) uint64 {
	var res uint64 = 1 % m
	a %= m
	for e > 0 {
		if e&1 == 1 {
			res = mulMod64(res, a, m)
		}
		a = mulMod64(a, a, m)
		e >>= 1
	}
	return res
}

// relation is one smooth residue: exponent vector (heap bytes, index 0
// is the sign), the GF(2) row (heap bitset), and A = A_{i-1} mod N
// (heap bignat).
type relation struct {
	exps mheap.Ref // one byte per factor-base entry
	row  mheap.Ref // bitset, ceil(fb/8) bytes
	a    mheap.Ref // bignat
}

func (r *relation) free(h *mheap.Heap) {
	h.Free(r.exps)
	h.Free(r.row)
	h.Free(r.a)
}

// Config tunes the factorizer.
type Config struct {
	// FactorBase is the number of primes kept in the base (default 64).
	FactorBase int
	// MaxIterations bounds continued-fraction steps per multiplier
	// (default 400000).
	MaxIterations int
	// Multipliers to try in order (default 1,3,5,7,11,13).
	Multipliers []uint64
}

func (c Config) withDefaults() Config {
	if c.FactorBase == 0 {
		c.FactorBase = 64
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 400000
	}
	if c.Multipliers == nil {
		c.Multipliers = []uint64{1, 3, 5, 7, 11, 13}
	}
	return c
}

// Factor factors the decimal number n into two non-trivial factors.
// It records all heap traffic on a fresh heap and returns the trace.
// n must be an odd composite that is not a perfect power of a base
// prime (trial division catches small factors first).
func Factor(n string, cfg Config) (f1, f2 string, events []trace.Event, err error) {
	cfg = cfg.withDefaults()
	h := mheap.New()
	h.SetRecorder(func(e trace.Event) { events = append(events, e) })
	a := mlib.Raw{H: h}

	N, err := mlib.NatFromDecimal(a, n)
	if err != nil {
		return "", "", events, err
	}
	one := mlib.NatFromUint64(a, 1)
	if mlib.NatCmp(h, N, one) <= 0 {
		return "", "", events, fmt.Errorf("cfrac: %s has no non-trivial factorization", n)
	}

	// Trial division by small primes first, like the original.
	for _, p := range primesUpTo(1000) {
		pn := mlib.NatFromUint64(a, p)
		if mlib.NatCmp(h, pn, N) >= 0 {
			h.Free(pn)
			break
		}
		rem := mlib.NatMod(a, N, pn)
		isZero := mlib.NatIsZero(h, rem)
		h.Free(rem)
		h.Free(pn)
		if isZero {
			q := natDivSmall(a, N, p)
			f1 = fmt.Sprintf("%d", p)
			f2 = mlib.NatToDecimal(h, q)
			return f1, f2, events, nil
		}
	}

	for _, k := range cfg.Multipliers {
		f1, f2, err = factorWithMultiplier(a, N, k, cfg)
		if err == nil {
			return f1, f2, events, nil
		}
	}
	return "", "", events, fmt.Errorf("cfrac: gave up on %s: %v", n, err)
}

// natDivSmall divides a bignat by a small prime known to divide it.
func natDivSmall(a mlib.Allocator, x mheap.Ref, p uint64) mheap.Ref {
	h := a.Heap()
	// Repeated subtraction would be absurd; do it in decimal string
	// space via the limbs: reuse NatToDecimal + schoolbook division.
	s := mlib.NatToDecimal(h, x)
	var quotient []byte
	var rem uint64
	for i := 0; i < len(s); i++ {
		cur := rem*10 + uint64(s[i]-'0')
		quotient = append(quotient, byte('0'+cur/p))
		rem = cur % p
	}
	// Trim leading zeros.
	q := string(quotient)
	for len(q) > 1 && q[0] == '0' {
		q = q[1:]
	}
	out, err := mlib.NatFromDecimal(a, q)
	if err != nil {
		panic("cfrac: internal division error")
	}
	return out
}

func factorWithMultiplier(a mlib.Allocator, N mheap.Ref, k uint64, cfg Config) (string, string, error) {
	h := a.Heap()

	kBig := mlib.NatFromUint64(a, k)
	kN := mlib.NatMul(a, N, kBig)
	h.Free(kBig)
	defer h.Free(kN)

	gBig := mlib.NatSqrt(a, kN)
	g, ok := mlib.NatToUint64(h, gBig)
	if !ok || g >= 1<<44 {
		h.Free(gBig)
		return "", "", fmt.Errorf("cfrac: number too large for this implementation (sqrt(kN) must fit in 44 bits)")
	}
	// Exact square: immediate factor.
	gSq := mlib.NatMul(a, gBig, gBig)
	if mlib.NatCmp(h, gSq, kN) == 0 && k == 1 {
		h.Free(gSq)
		f := mlib.NatToDecimal(h, gBig)
		h.Free(gBig)
		return f, f, nil
	}

	// Factor base: -1 and primes with (kN|p) != -1.
	kNmodSmall := func(p uint64) uint64 {
		pn := mlib.NatFromUint64(a, p)
		r := mlib.NatMod(a, kN, pn)
		v, _ := mlib.NatToUint64(h, r)
		h.Free(pn)
		h.Free(r)
		return v
	}
	var fb []uint64 // fb[0] is the formal -1; primes follow
	fb = append(fb, 0)
	for _, p := range primesUpTo(100000) {
		if len(fb) >= cfg.FactorBase {
			break
		}
		if p == 2 || legendre(kNmodSmall(p), p) != -1 {
			fb = append(fb, p)
		}
	}
	fbSize := len(fb)
	rowBytes := (fbSize + 7) / 8

	// Continued-fraction state.
	qPrev := uint64(1) // Q_0
	qkn := mlib.NatSub(a, kN, gSq)
	h.Free(gSq)
	qCur64, ok := mlib.NatToUint64(h, qkn)
	h.Free(qkn)
	if !ok || qCur64 == 0 {
		h.Free(gBig)
		return "", "", fmt.Errorf("cfrac: degenerate expansion")
	}
	qCur := qCur64                    // Q_1
	p := g                            // P_1
	aPrev := mlib.NatFromUint64(a, 1) // A_0... A_{-1} = 1
	aCur := mlib.NatMod(a, gBig, N)
	h.Free(gBig)

	var rels []relation
	freeRels := func() {
		for i := range rels {
			rels[i].free(h)
		}
		rels = nil
	}
	defer func() {
		freeRels()
		h.Free(aPrev)
		h.Free(aCur)
	}()

	target := fbSize + 8
	sign := 1 // (-1)^i for the current Q (i = 1 → odd → sign bit set)

	for iter := 0; iter < cfg.MaxIterations && len(rels) < target; iter++ {
		// Smoothness test on qCur over the factor base.
		exps := make([]byte, fbSize)
		if sign == 1 {
			exps[0] = 1
		}
		rem := qCur
		for j := 1; j < fbSize && rem > 1; j++ {
			for rem%fb[j] == 0 {
				rem /= fb[j]
				exps[j]++
			}
		}
		if rem == 1 && qCur > 1 {
			// Smooth: record the relation on the heap. The congruence
			// is A_{i-1}^2 ≡ (-1)^i Q_i (mod N); with qCur = Q_i the
			// matching numerator is aCur = A_{i-1}.
			r := relation{
				exps: a.Alloc(0, fbSize),
				row:  a.Alloc(0, rowBytes),
				a:    mlib.NatMod(a, aCur, N),
			}
			copy(h.Data(r.exps), exps)
			rowD := h.Data(r.row)
			for j, e := range exps {
				if e&1 == 1 {
					rowD[j/8] |= 1 << uint(j%8)
				}
			}
			rels = append(rels, r)
		}
		h.Tick(200)

		// Advance the recurrence.
		ai := (g + p) / qCur
		pNext := ai*qCur - p
		qNext := int64(qPrev) + int64(ai)*(int64(p)-int64(pNext))
		if qNext <= 0 {
			return "", "", fmt.Errorf("cfrac: recurrence broke down (period hit)")
		}
		// A_{i+1} = a_i*A_i + A_{i-1} (mod N)
		aiBig := mlib.NatFromUint64(a, ai)
		prod := mlib.NatMul(a, aiBig, aCur)
		sum := mlib.NatAdd(a, prod, aPrev)
		aNext := mlib.NatMod(a, sum, N)
		h.Free(aiBig)
		h.Free(prod)
		h.Free(sum)
		h.Free(aPrev)
		aPrev = aCur
		aCur = aNext

		qPrev, qCur, p = qCur, uint64(qNext), pNext
		sign = -sign
	}
	if len(rels) < target {
		return "", "", fmt.Errorf("cfrac: only %d/%d relations after %d iterations (k=%d)", len(rels), target, cfg.MaxIterations, k)
	}

	return solve(a, N, fb, rels)
}

// solve runs GF(2) elimination over the relation rows, and for each
// dependency assembles X and Y and tests gcd(X-Y, N).
func solve(a mlib.Allocator, N mheap.Ref, fb []uint64, rels []relation) (string, string, error) {
	h := a.Heap()
	fbSize := len(fb)
	rowBytes := (fbSize + 7) / 8
	nRels := len(rels)
	histBytes := (nRels + 7) / 8

	// Working copies of the rows plus combination history.
	rows := make([]mheap.Ref, nRels)
	hist := make([]mheap.Ref, nRels)
	for i, r := range rels {
		rows[i] = a.Alloc(0, rowBytes)
		copy(h.Data(rows[i]), h.Data(r.row))
		hist[i] = a.Alloc(0, histBytes)
		h.Data(hist[i])[i/8] |= 1 << uint(i%8)
	}
	defer func() {
		for i := range rows {
			h.Free(rows[i])
			h.Free(hist[i])
		}
	}()

	pivotOf := make([]int, fbSize) // bit -> row index, -1 none
	for i := range pivotOf {
		pivotOf[i] = -1
	}
	firstBit := func(row mheap.Ref) int {
		d := h.Data(row)
		for j := 0; j < fbSize; j++ {
			if d[j/8]&(1<<uint(j%8)) != 0 {
				return j
			}
		}
		return -1
	}
	xorInto := func(dst, src mheap.Ref) {
		dd, ds := h.Data(dst), h.Data(src)
		for i := range ds {
			dd[i] ^= ds[i]
		}
	}

	var lastErr error
	for i := 0; i < nRels; i++ {
		// Reduce row i against existing pivots.
		for {
			b := firstBit(rows[i])
			if b < 0 {
				// Dependency: combine the original relations in
				// hist[i] and try to split N.
				if f1, f2, ok := tryDependency(a, N, fb, rels, h.Data(hist[i])); ok {
					return f1, f2, nil
				}
				lastErr = fmt.Errorf("cfrac: dependency gave trivial factors")
				break
			}
			if pivotOf[b] < 0 {
				pivotOf[b] = i
				break
			}
			xorInto(rows[i], rows[pivotOf[b]])
			xorInto(hist[i], hist[pivotOf[b]])
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cfrac: no dependency found")
	}
	return "", "", lastErr
}

// tryDependency builds X = Π A_j and Y = Π p^(e_p/2) over the combined
// relations and tests gcd(X−Y, N) and gcd(X+Y, N).
func tryDependency(a mlib.Allocator, N mheap.Ref, fb []uint64, rels []relation, mask []byte) (string, string, bool) {
	h := a.Heap()
	fbSize := len(fb)

	x := mlib.NatFromUint64(a, 1)
	expSum := make([]int, fbSize)
	for j := range rels {
		if mask[j/8]&(1<<uint(j%8)) == 0 {
			continue
		}
		nx := mlib.NatMulMod(a, x, rels[j].a, N)
		h.Free(x)
		x = nx
		d := h.Data(rels[j].exps)
		for e := 0; e < fbSize; e++ {
			expSum[e] += int(d[e])
		}
	}
	y := mlib.NatFromUint64(a, 1)
	for e := 1; e < fbSize; e++ { // skip the -1 slot: its exponent is even by construction
		half := expSum[e] / 2
		if expSum[e]%2 != 0 {
			// Should not happen for a true dependency.
			h.Free(x)
			h.Free(y)
			return "", "", false
		}
		pb := mlib.NatFromUint64(a, fb[e])
		for t := 0; t < half; t++ {
			ny := mlib.NatMulMod(a, y, pb, N)
			h.Free(y)
			y = ny
		}
		h.Free(pb)
	}

	try := func(diff mheap.Ref) (string, string, bool) {
		g := mlib.NatGCD(a, diff, N)
		defer h.Free(g)
		one := mlib.NatFromUint64(a, 1)
		defer h.Free(one)
		if mlib.NatIsZero(h, g) || mlib.NatCmp(h, g, one) == 0 || mlib.NatCmp(h, g, N) == 0 {
			return "", "", false
		}
		f1 := mlib.NatToDecimal(h, g)
		q := natDivBig(a, N, g)
		f2 := mlib.NatToDecimal(h, q)
		h.Free(q)
		return f1, f2, true
	}

	// X - Y mod N (order the operands first).
	var diff mheap.Ref
	if mlib.NatCmp(h, x, y) >= 0 {
		diff = mlib.NatSub(a, x, y)
	} else {
		diff = mlib.NatSub(a, y, x)
	}
	f1, f2, ok := try(diff)
	h.Free(diff)
	if !ok {
		sum := mlib.NatAdd(a, x, y)
		f1, f2, ok = try(sum)
		h.Free(sum)
	}
	h.Free(x)
	h.Free(y)
	return f1, f2, ok
}

// natDivBig computes x / d for d | x by binary long division (quotient
// reconstruction via shift-and-subtract).
func natDivBig(a mlib.Allocator, x, d mheap.Ref) mheap.Ref {
	h := a.Heap()
	// Simple O(bits) schoolbook: q = 0; r = 0; scan bits of x MSB→LSB.
	// Reuse decimal-space division for clarity: divide decimal strings.
	xs := mlib.NatToDecimal(h, x)
	ds := mlib.NatToDecimal(h, d)
	// Long division in decimal with bignat remainder comparisons would
	// be slow; instead use repeated subtraction on scaled divisors.
	q := mlib.NatFromUint64(a, 0)
	rem, _ := mlib.NatFromDecimal(a, xs)
	dBig, _ := mlib.NatFromDecimal(a, ds)
	// Scale table: d * 10^k
	type scaled struct {
		val mheap.Ref
		pow mheap.Ref
	}
	var scales []scaled
	cur := dBig
	pow := mlib.NatFromUint64(a, 1)
	ten := mlib.NatFromUint64(a, 10)
	for mlib.NatCmp(h, cur, rem) <= 0 {
		scales = append(scales, scaled{cur, pow})
		cur = mlib.NatMul(a, cur, ten)
		pow = mlib.NatMul(a, pow, ten)
	}
	h.Free(cur)
	h.Free(pow)
	for i := len(scales) - 1; i >= 0; i-- {
		for mlib.NatCmp(h, scales[i].val, rem) <= 0 {
			nr := mlib.NatSub(a, rem, scales[i].val)
			h.Free(rem)
			rem = nr
			nq := mlib.NatAdd(a, q, scales[i].pow)
			h.Free(q)
			q = nq
		}
		h.Free(scales[i].val)
		h.Free(scales[i].pow)
	}
	h.Free(rem)
	h.Free(ten)
	return q
}
