package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.TOptics.Params
import repro.model.Series

class TOpticsSpec extends AnyFunSuite {

  private def lane(objId: Long, y0: Double, t0: Long = 0L, n: Int = 20): Series =
    Series(objId, Array.tabulate(n)(i => t0 + i * 10L),
           Array.tabulate(n)(_.toDouble * 2), Array.fill(n)(y0), new Array[Double](n))

  private val P = Params(minPts = 2, epsExtract = 5.0)

  test("empty input yields empty labels") {
    assert(TOptics.run(Array.empty, P).isEmpty)
  }

  test("two well-separated groups form two clusters") {
    val trajs = (0 until 4).map(i => lane(i, i * 0.5)).toArray ++
                (0 until 4).map(i => lane(10 + i, 500 + i * 0.5)).toArray
    val labels = TOptics.run(trajs, P.copy(minPts = 3))
    val g1 = labels.take(4).distinct
    val g2 = labels.drop(4).distinct
    assert(g1.length == 1 && g1.head >= 0)
    assert(g2.length == 1 && g2.head >= 0)
    assert(g1.head != g2.head)
  }

  test("an isolated trajectory is noise") {
    val trajs = (0 until 4).map(i => lane(i, i * 0.5)).toArray :+ lane(99, 10000)
    val labels = TOptics.run(trajs, P.copy(minPts = 3))
    assert(labels.last == -1)
  }

  test("time-awareness: same shape at disjoint times does NOT cluster together") {
    val early = (0 until 3).map(i => lane(i, i * 0.5, t0 = 0)).toArray
    val late  = (0 until 3).map(i => lane(10 + i, i * 0.5, t0 = 100000)).toArray
    val labels = TOptics.run(early ++ late, P.copy(minPts = 2))
    val gEarly = labels.take(3).distinct
    val gLate = labels.drop(3).distinct
    assert(gEarly.length == 1 && gLate.length == 1)
    assert(gEarly.head != gLate.head || gEarly.head == -1,
      "temporally disjoint groups must not share a cluster")
  }

  test("labels length matches input length") {
    val trajs = (0 until 7).map(i => lane(i, i * 100.0)).toArray
    assert(TOptics.run(trajs, P).length == 7)
  }

  test("whole-trajectory granularity: a half-deviating object falls out of the cluster") {
    // 3 clean lane members + 1 object that follows the lane for the first
    // half then shoots off — its *whole-trajectory* distance becomes large.
    val clean = (0 until 3).map(i => lane(i, i * 0.5, n = 40)).toArray
    val deviantXs = Array.tabulate(40)(i => if (i < 20) i * 2.0 else 40.0 + (i - 20) * 50.0)
    val deviant = Series(9, Array.tabulate(40)(_ * 10L), deviantXs, Array.fill(40)(0.5),
                         new Array[Double](40))
    val labels = TOptics.run(clean :+ deviant, P.copy(minPts = 2))
    assert(labels.take(3).forall(_ >= 0))
    assert(labels.last == -1, "T-OPTICS cannot keep a partially co-moving object")
  }

  test("a dense single group is one cluster") {
    val trajs = (0 until 6).map(i => lane(i, i * 0.3)).toArray
    val labels = TOptics.run(trajs, P.copy(minPts = 3))
    assert(labels.distinct.length == 1 && labels.head >= 0)
  }
}
