package repro.sampling

import org.scalatest.funsuite.AnyFunSuite
import repro.model.{Series, SubTraj}

class SamplingSpec extends AnyFunSuite {

  /** A straight sub-trajectory at lateral offset `y0` with constant vote. */
  private def sub(objId: Long, y0: Double, vote: Double, t0: Long = 0L, n: Int = 10,
                  subId: Int = 0): SubTraj =
    SubTraj(Series(objId, Array.tabulate(n)(i => t0 + i * 10L),
                   Array.tabulate(n)(_.toDouble), Array.fill(n)(y0), Array.fill(n)(vote)), subId)

  private val P = Sampling.Params(eps = 5.0, minOverlapFrac = 0.5, maxReps = 10,
                                  minAvgVote = 1.0)

  test("empty input yields no representatives") {
    assert(Sampling.select(Array.empty, P).isEmpty)
  }

  test("a single qualifying sub-trajectory represents itself") {
    val reps = Sampling.select(Array(sub(1, 0, 5.0)), P)
    assert(reps.length == 1 && reps.head.objId == 1)
  }

  test("sub-trajectories below minAvgVote are never representatives") {
    val reps = Sampling.select(Array(sub(1, 0, 0.5)), P)
    assert(reps.isEmpty)
  }

  test("the highest-voted sub-trajectory is chosen first") {
    val subs = Array(sub(1, 0, 2.0), sub(2, 0.5, 9.0), sub(3, 1.0, 4.0))
    val reps = Sampling.select(subs, P)
    assert(reps.head.objId == 2)
  }

  test("a chosen representative suppresses everything it covers") {
    // three mutually-close lanes: only the best becomes a representative
    val subs = Array(sub(1, 0, 2.0), sub(2, 1, 9.0), sub(3, 2, 4.0))
    val reps = Sampling.select(subs, P)
    assert(reps.length == 1)
  }

  test("far-apart groups each contribute a representative") {
    val subs = Array(sub(1, 0, 5.0), sub(2, 1, 4.0), sub(3, 100, 5.0), sub(4, 101, 4.0))
    val reps = Sampling.select(subs, P)
    assert(reps.length == 2)
    assert(reps.map(_.objId).toSet == Set(1L, 3L))
  }

  test("temporally disjoint sub-trajectories are not mutually suppressed") {
    val subs = Array(sub(1, 0, 5.0, t0 = 0), sub(2, 0, 4.0, t0 = 10000))
    val reps = Sampling.select(subs, P)
    assert(reps.length == 2, "same shape at different times must both be representatives")
  }

  test("maxReps caps the sampling set size") {
    val subs = Array.tabulate(20)(i => sub(i, i * 100.0, 5.0))
    val reps = Sampling.select(subs, P.copy(maxReps = 3))
    assert(reps.length == 3)
  }

  test("maxReps below 1 is rejected") {
    intercept[IllegalArgumentException] {
      Sampling.select(Array(sub(1, 0, 5.0)), P.copy(maxReps = 0))
    }
  }

  test("selection is deterministic under score ties") {
    val subs = Array(sub(5, 0, 3.0), sub(2, 200, 3.0), sub(9, 400, 3.0))
    val a = Sampling.select(subs, P).map(_.objId).toSeq
    val b = Sampling.select(subs.reverse, P).map(_.objId).toSeq
    assert(a.toSet == b.toSet)
    assert(a.head == 2L, "ties broken by objId")
  }

  test("score favors long sub-trajectories over short high-vote ones") {
    val short = sub(1, 0, 3.0, n = 5)        // score 15
    val long  = sub(2, 100, 1.5, n = 40)     // score 60
    val reps = Sampling.select(Array(short, long), P)
    assert(reps.head.objId == 2L)
  }

  test("a low-vote sub-trajectory near a representative is suppressed, not selected") {
    val subs = Array(sub(1, 0, 9.0), sub(2, 2, 1.2))
    val reps = Sampling.select(subs, P)
    assert(reps.length == 1 && reps.head.objId == 1L)
  }
}
