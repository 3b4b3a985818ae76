"""Adaptive quadrature on a finite interval: a port of QUADPACK's DQAGS
(Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, 1983), the routine
dqagse with its 21-point Gauss-Kronrod rule dqk21, its epsilon-algorithm
extrapolation dqelg and its error-list ordering dqpsrt.

It is the algorithm behind scipy.integrate.quad on a finite interval
(scipy.integrate._quadpack._qagse), ported with the same Kronrod nodes and
weights, the same order of every accumulation, and the same bisection,
extrapolation and stopping rules, so it returns scipy's result, error
estimate, flag and subdivision lists bit for bit.  The non-homogeneous
Campbell integrals and the extended-Gamma window mass call it, so the
command line gets them without importing scipy, which costs more start-up
time than the integrals themselves.

The one departure is in how the integrand is called: f takes the 21
abscissae of a Kronrod rule as one float64 array and returns their 21
values, so a numpy integrand is evaluated once per rule, not once per
point.  The values must be those f would give point by point; elementwise
numpy arithmetic gives them.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

import numpy as np

_EPMACH = sys.float_info.epsilon   # d1mach(4)
_UFLOW = sys.float_info.min        # d1mach(1)
_OFLOW = sys.float_info.max        # d1mach(2)

# dqk21: abscissae of the 21-point Kronrod rule on [-1, 1] (the odd-indexed
# ones are the 10-point Gauss nodes), the Kronrod weights (the last is the
# centre's) and the Gauss weights of the Gauss nodes
_XGK = np.array([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                 0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                 0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                 0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                 0.294392862701460198131126603103866, 0.148874338981631210884826001129720])
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


class QagsResult(NamedTuple):
    """dqagse's outputs.  alist, blist, rlist and elist hold the last
    intervals of the subdivision: their ends, integrals and error
    estimates.  iord holds the 0-based interval indices in descending error
    order, as far as dqpsrt keeps that order: its first min(last,
    limit // 2 + 2) positions, the only ones it writes."""

    result: float
    abserr: float
    ier: int
    neval: int
    last: int
    alist: list
    blist: list
    rlist: list
    elist: list
    iord: list


def _qk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """dqk21: (result, abserr, resabs, resasc) of the 21-point rule on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    absc = hlgth * _XGK
    fv = np.asarray(f(np.concatenate(([centr], centr - absc, centr + absc))),
                    dtype=float).tolist()
    fc, fv1, fv2 = fv[0], fv[1:11], fv[11:]
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in (1, 3, 5, 7, 9):      # the Gauss nodes, then the other Kronrod nodes
        fsum = fv1[j] + fv2[j]
        resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    for j in (0, 2, 4, 6, 8):
        fsum = fv1[j] + fv2[j]
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list,
           nrmax: int) -> tuple[int, float, int]:
    """dqpsrt: inserts the two intervals of the latest bisection (maxerr
    and last - 1) into the descending order iord; returns the interval to
    bisect next, its error and the updated nrmax (0-based positions)."""
    if last <= 2:
        iord[0], iord[1] = 0, 1
    else:
        # a bisection that raised its interval's error moves it up first
        errmax = elist[maxerr]
        while nrmax > 0:
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only the first jupbn positions are kept in order: the rest could
        # not be bisected within the limit
        jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
        errmin = elist[last - 1]
        for i in range(nrmax + 1, jupbn - 1):      # insert errmax top-down
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jupbn - 2
                for _ in range(i, jupbn - 1):      # and errmin bottom-up
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last - 1
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last - 1
                break
            iord[i - 1] = isucc
        else:
            iord[jupbn - 2] = maxerr
            iord[jupbn - 1] = last - 1
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int) -> tuple[int, float, float, int]:
    """dqelg: one step of Wynn's epsilon algorithm on the n partial sums in
    epstab (a table of 52); returns the new n, the extrapolated value, its
    error estimate and the count of calls so far."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n - 1]
    if n >= 3:
        limexp = 50
        epstab[n + 1] = epstab[n - 1]
        newelm = (n - 1) // 2
        epstab[n - 1] = _OFLOW
        num = n
        k1 = n           # 1-based, as in the table's description
        converged = False
        for i in range(1, newelm + 1):
            res = epstab[k1 + 1]
            e0 = epstab[k1 - 3]
            e1 = epstab[k1 - 2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 are equal to machine accuracy: converged
                result = res
                abserr = err2 + err3
                converged = True
                break
            e3 = epstab[k1 - 1]
            epstab[k1 - 1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1    # two elements very close: drop part of the table
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1    # irregular behaviour: drop part of the table
                break
            res = e1 + 1.0 / ss
            epstab[k1 - 1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if error > abserr:
                continue
            abserr = error
            result = res
        if not converged:
            if n == limexp:
                n = 2 * (limexp // 2) - 1
            ib = 1 if num % 2 else 2    # shift the table
            for _ in range(newelm + 1):
                epstab[ib - 1] = epstab[ib + 1]
                ib += 2
            if num != n:
                indx = num - n
                for i in range(n):
                    epstab[i] = epstab[indx]
                    indx += 1
            if nres < 4:
                res3la[nres - 1] = result
                abserr = _OFLOW
            else:
                abserr = (abs(result - res3la[2]) + abs(result - res3la[1])
                          + abs(result - res3la[0]))
                res3la[0], res3la[1], res3la[2] = res3la[1], res3la[2], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def qags(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
         epsabs: float, epsrel: float, limit: int) -> QagsResult:
    """dqagse: int_a^b f(x) dx for finite a and b, by bisection of the
    interval with the largest error estimate and epsilon-algorithm
    extrapolation, until the error estimate is below max(epsabs,
    epsrel |result|) or limit intervals are used.  ier is QUADPACK's flag
    (0: converged; 1: limit reached; 2: roundoff; 3: bad integrand
    behaviour; 4: extrapolation roundoff; 5: divergent or slowly
    convergent; 6: tolerances that cannot be met)."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    a, b = float(a), float(b)
    alist, blist = [a] + [0.0] * (limit - 1), [b] + [0.0] * (limit - 1)
    rlist, elist, iord = [0.0] * limit, [0.0] * limit, [0] * limit

    def done(result, abserr, ier, last):
        return QagsResult(result, abserr, ier, 42 * last - 21, last, alist[:last],
                          blist[:last], rlist[:last], elist[:last],
                          iord[:min(last, limit // 2 + 2)])

    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 5e-29):
        return QagsResult(0.0, 0.0, 6, 0, 0, [], [], [], [], [])

    # first approximation to the integral
    ierro = 0
    ier = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[0] = result
    elist[0] = abserr
    iord[0] = 0
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return done(result, abserr, ier, last)

    rlist2 = [0.0] * 52
    rlist2[0] = result
    res3la = [0.0] * 3
    errmax = abserr
    maxerr = 0
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 0
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    summed = False    # exit by summing the intervals' integrals (label 115)

    for last in range(2, limit + 1):
        # bisect the interval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        # improve the previous approximations and test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last - 1] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2      # roundoff error
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4      # bad integrand behaviour at a point of the range
        if error2 > error1:
            alist[maxerr] = a2
            alist[last - 1] = a1
            blist[last - 1] = b1
            rlist[maxerr] = area2
            rlist[last - 1] = area1
            elist[maxerr] = error2
            elist[last - 1] = error1
        else:
            alist[last - 1] = a2
            blist[maxerr] = b1
            blist[last - 1] = b2
            elist[maxerr] = error1
            elist[last - 1] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[1] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 1
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: first bisect
            # the larger intervals whose errors sum to erlarg
            jupbnd = last if last <= 2 + limit // 2 else limit + 3 - last
            large = False
            for _ in range(jupbnd - nrmax):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    large = True
                    break
                nrmax += 1
            if large:
                continue
        # extrapolate
        numrl2 += 1
        rlist2[numrl2 - 1] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[0]
        errmax = elist[maxerr]
        nrmax = 0
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set the final result and error estimate (labels 100 to 130)
    if not summed:
        if abserr == _OFLOW:
            summed = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                summed = True
            elif area == 0.0:
                return done(result, abserr, ier - 1 if ier > 2 else ier, last)
        if not summed:
            # test on divergence.  area = 0 only after an extrapolation; IEEE
            # result / 0 is then inf or nan, and either sets ier = 6 (errsum
            # > 0 here, or the loop would have summed), as inf does
            if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
                ratio = result / area if area != 0.0 else math.inf
                if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                    ier = 6
    if summed:
        result = 0.0
        for k in range(last):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return done(result, abserr, ier, last)
