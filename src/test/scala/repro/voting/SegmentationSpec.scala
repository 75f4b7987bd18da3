package repro.voting

import repro.SparkSpec
import repro.model.Series

class SegmentationSpec extends SparkSpec {

  private val P = Segmentation.Params(lambda = 2.0, minLen = 3, maxGap = 15L)

  // ------------------------------------------------------- segmentIndices

  test("constant voting signal is never split") {
    val segs = Segmentation.segmentIndices(Array.fill(50)(3.0), lambda = 1.0, minLen = 3)
    assert(segs == List((0, 50)))
  }

  test("empty signal yields no segments") {
    assert(Segmentation.segmentIndices(Array.empty, 1.0, 3).isEmpty)
  }

  test("a sharp step splits exactly at the step") {
    val v = Array.fill(20)(0.0) ++ Array.fill(20)(10.0)
    val segs = Segmentation.segmentIndices(v, lambda = 5.0, minLen = 3)
    assert(segs == List((0, 20), (20, 40)))
  }

  test("three-level staircase produces three segments") {
    val v = Array.fill(15)(0.0) ++ Array.fill(15)(10.0) ++ Array.fill(15)(20.0)
    val segs = Segmentation.segmentIndices(v, lambda = 5.0, minLen = 3)
    assert(segs == List((0, 15), (15, 30), (30, 45)))
  }

  test("segments cover the whole signal without overlap") {
    val rnd = new scala.util.Random(3)
    val v = Array.fill(100)(rnd.nextDouble() * 10)
    val segs = Segmentation.segmentIndices(v, lambda = 3.0, minLen = 4)
    assert(segs.head._1 == 0 && segs.last._2 == 100)
    segs.sliding(2).foreach {
      case List((_, e1), (s2, _)) => assert(e1 == s2)
      case _                      => ()
    }
  }

  test("minLen is respected by every emitted segment") {
    val rnd = new scala.util.Random(4)
    val v = Array.fill(60)(rnd.nextDouble() * 20)
    val segs = Segmentation.segmentIndices(v, lambda = 0.1, minLen = 5)
    segs.foreach { case (s, e) => assert(e - s >= 5) }
  }

  test("higher lambda yields fewer (or equal) segments") {
    val v = Array.fill(10)(0.0) ++ Array.fill(10)(3.0) ++ Array.fill(10)(6.0) ++ Array.fill(10)(0.0)
    val loose = Segmentation.segmentIndices(v, lambda = 0.5, minLen = 3).length
    val strict = Segmentation.segmentIndices(v, lambda = 500.0, minLen = 3).length
    assert(strict <= loose)
    assert(strict == 1)
  }

  test("signal shorter than 2*minLen stays whole") {
    val segs = Segmentation.segmentIndices(Array(0.0, 10.0, 0.0, 10.0, 0.0), 0.01, 3)
    assert(segs == List((0, 5)))
  }

  test("minLen below 1 is rejected") {
    intercept[IllegalArgumentException] {
      Segmentation.segmentIndices(Array(1.0, 2.0), 1.0, 0)
    }
  }

  test("noise around two voting levels still splits near the change point") {
    val rnd = new scala.util.Random(6)
    val v = Array.tabulate(60)(i => (if (i < 30) 1.0 else 8.0) + rnd.nextGaussian() * 0.3)
    val segs = Segmentation.segmentIndices(v, lambda = 10.0, minLen = 4)
    assert(segs.length == 2)
    val cut = segs.head._2
    assert(math.abs(cut - 30) <= 2, s"split at $cut, expected ~30")
  }

  // ----------------------------------------------------------- segmentOne

  test("segmentOne keeps a homogeneous gap-free trajectory whole") {
    val n = 30
    val subs = Segmentation.segmentOne(Series(1L, Array.tabulate(n)(_ * 10L),
      Array.tabulate(n)(_.toDouble), new Array[Double](n), Array.fill(n)(2.0)), P)
    assert(subs.length == 1)
    assert(subs.head.subId == 0 && subs.head.size == n)
  }

  test("segmentOne splits at temporal gaps larger than maxGap") {
    val ts = Array(0L, 10L, 20L, 100L, 110L, 120L)
    val subs = Segmentation.segmentOne(Series(1L, ts, new Array[Double](6), new Array[Double](6),
      Array.fill(6)(1.0)), P)
    assert(subs.length == 2)
    assert(subs(0).ts.toSeq == Seq(0L, 10L, 20L))
    assert(subs(1).ts.toSeq == Seq(100L, 110L, 120L))
  }

  test("segmentOne combines gap and voting splits, subIds consecutive in time") {
    val ts = (0 until 20).map(_ * 10L).toArray ++ (50 until 70).map(_ * 10L).toArray
    val votes = Array.fill(10)(0.0) ++ Array.fill(10)(10.0) ++ Array.fill(20)(5.0)
    val subs = Segmentation.segmentOne(Series(1L, ts, new Array[Double](40), new Array[Double](40),
      votes), P.copy(lambda = 5.0, maxGap = 50L))
    assert(subs.length == 3)
    assert(subs.map(_.subId).toSeq == Seq(0, 1, 2))
    assert(subs.map(_.tStart).toSeq == subs.map(_.tStart).sorted.toSeq)
  }

  test("segmentOne on empty input yields nothing") {
    assert(Segmentation.segmentOne(Series(1L, Array.empty, Array.empty, Array.empty, Array.empty), P)
      .isEmpty)
  }

  test("segmentOne preserves the samples verbatim inside sub-trajectories") {
    val n = 12
    val ts = Array.tabulate(n)(_ * 10L)
    val xs = Array.tabulate(n)(i => i * 1.5)
    val ys = Array.tabulate(n)(i => -i * 0.5)
    val votes = Array.tabulate(n)(_.toDouble)
    val subs = Segmentation.segmentOne(Series(1L, ts, xs, ys, votes), P.copy(lambda = 1e9))
    assert(subs.length == 1)
    assert(subs.head.xs.toSeq == xs.toSeq && subs.head.ys.toSeq == ys.toSeq &&
      subs.head.votes.toSeq == votes.toSeq)
  }

  // ------------------------------------------------- segmentTrajectories

  test("distributed segmentation equals local segmentation per object") {
    import spark.implicits._
    val rnd = new scala.util.Random(11)
    val rows = for {
      objId <- 1L to 4L
      i <- 0 until 40
    } yield (objId, i * 10L, rnd.nextDouble() * 100, rnd.nextDouble() * 100,
             if (i < 20) 1.0 else 9.0)
    val df = rows.toDF("obj_id", "t", "x", "y", "vote")
    val got = Segmentation.segmentTrajectories(df, P.copy(lambda = 5.0)).collect()
      .groupBy(_.objId)
    for (objId <- 1L to 4L) {
      val mine = rows.filter(_._1 == objId).sortBy(_._2)
      val expected = Segmentation.segmentOne(Series(objId, mine.map(_._2).toArray,
        mine.map(_._3).toArray, mine.map(_._4).toArray, mine.map(_._5).toArray),
        P.copy(lambda = 5.0))
      val gotSorted = got(objId).sortBy(_.subId)
      assert(gotSorted.length == expected.length)
      gotSorted.zip(expected).foreach { case (g, e) =>
        assert(g.ts.toSeq == e.ts.toSeq && g.votes.toSeq == e.votes.toSeq)
      }
    }
  }

  test("distributed segmentation handles unsorted rows within an object") {
    import spark.implicits._
    val rows = Seq(
      (1L, 20L, 2.0, 0.0, 1.0), (1L, 0L, 0.0, 0.0, 1.0), (1L, 10L, 1.0, 0.0, 1.0),
      (1L, 30L, 3.0, 0.0, 1.0))
    val df = rows.toDF("obj_id", "t", "x", "y", "vote")
    val subs = Segmentation.segmentTrajectories(df, P).collect()
    assert(subs.length == 1)
    assert(subs.head.ts.toSeq == Seq(0L, 10L, 20L, 30L))
    assert(subs.head.xs.toSeq == Seq(0.0, 1.0, 2.0, 3.0))
  }
}
