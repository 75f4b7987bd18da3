package repro.model

import org.scalatest.funsuite.AnyFunSuite

class ModelSpec extends AnyFunSuite {

  private def series(objId: Long = 1L,
                     ts: Array[Long] = Array(0L, 10L, 20L),
                     xs: Array[Double] = Array(0.0, 1.0, 2.0),
                     ys: Array[Double] = Array(0.0, 0.0, 0.0),
                     votes: Array[Double] = Array(1.0, 2.0, 3.0)): Series =
    Series(objId, ts, xs, ys, votes)

  private def sub(objId: Long = 1L, subId: Int = 0,
                  ts: Array[Long] = Array(0L, 10L, 20L),
                  xs: Array[Double] = Array(0.0, 1.0, 2.0),
                  ys: Array[Double] = Array(0.0, 0.0, 0.0),
                  votes: Array[Double] = Array(1.0, 2.0, 3.0)): SubTraj =
    SubTraj(Series(objId, ts, xs, ys, votes), subId)

  private def rows(s: Series): Seq[(Long, Long, Double, Double, Double)] =
    s.ts.indices.map(i => (s.objId, s.ts(i), s.xs(i), s.ys(i), s.votes(i)))

  test("tStart/tEnd are the first and last timestamps") {
    assert(series().tStart == 0L && sub().tStart == 0L)
    assert(series().tEnd == 20L && sub().tEnd == 20L)
  }

  test("duration spans first to last sample") {
    assert(series().duration == 20L)
  }

  test("duration of a single-sample sub-trajectory is zero") {
    val s = series(ts = Array(5L), xs = Array(1.0), ys = Array(2.0), votes = Array(0.5))
    assert(s.duration == 0L)
  }

  test("size is the number of samples") {
    assert(series().size == 3 && sub().size == 3)
  }

  test("meanVote averages the voting signal") {
    assert(math.abs(sub().meanVote - 2.0) < 1e-12)
  }

  test("meanVote of empty votes is zero") {
    val s = sub(ts = Array.empty[Long], xs = Array.empty, ys = Array.empty, votes = Array.empty)
    assert(s.meanVote == 0.0)
  }

  test("score is the total voting mass") {
    assert(math.abs(sub().score - 6.0) < 1e-12)
  }

  test("key combines object and sub ids") {
    assert(sub(objId = 7L, subId = 3).key == ((7L, 3)))
  }

  test("mismatched parallel arrays are rejected") {
    intercept[IllegalArgumentException] {
      Series(1L, Array(0L, 1L), Array(0.0), Array(0.0), Array(0.0))
    }
    intercept[IllegalArgumentException] {
      Series(1L, Array(0L), Array(0.0), Array(0.0), Array(0.0, 1.0))
    }
    intercept[IllegalArgumentException] {
      SubTraj(Series(1L, Array(0L, 1L), Array(0.0), Array(0.0), Array(0.0)), 0)
    }
  }

  test("fromRows sorts shuffled rows by t into the same series") {
    val s = series(ts = Array(0L, 10L, 20L, 30L, 40L), xs = Array(0.0, 1.0, 2.0, 3.0, 4.0),
                   ys = Array(5.0, 6.0, 7.0, 8.0, 9.0), votes = Array(0.1, 0.2, 0.3, 0.4, 0.5))
    val got = Series.fromRows(new scala.util.Random(3).shuffle(rows(s)).toArray)
    assert(rows(got) == rows(s))
  }

  test("fromRows rejects rows of several objects and empty input") {
    intercept[IllegalArgumentException] {
      Series.fromRows(Array((1L, 0L, 0.0, 0.0, 0.0), (2L, 10L, 0.0, 0.0, 0.0)))
    }
    intercept[IllegalArgumentException] { Series.fromRows(Array.empty) }
  }

  test("byObject groups interleaved rows into one sorted series per object, in object order") {
    val a = series(objId = 7L)
    val b = series(objId = 2L, ts = Array(5L, 15L), xs = Array(1.0, 2.0), ys = Array(3.0, 4.0),
                   votes = Array(0.5, 0.6))
    val got = Series.byObject(new scala.util.Random(5).shuffle(rows(a) ++ rows(b)).toArray)
    assert(got.map(rows).toSeq == Seq(rows(b), rows(a)))
    assert(Series.byObject(Array.empty).isEmpty)
  }

  test("clip keeps exactly the samples with lo <= t < hi") {
    val s = series(ts = Array(0L, 10L, 20L, 30L, 40L), xs = Array(0.0, 1.0, 2.0, 3.0, 4.0),
                   ys = Array(0.0, 0.0, 0.0, 0.0, 0.0), votes = Array(0.1, 0.2, 0.3, 0.4, 0.5))
    for ((lo, hi) <- Seq((0L, 50L), (10L, 30L), (5L, 31L), (-10L, 10L), (40L, 41L), (20L, 20L),
                         (30L, 10L), (41L, 100L), (-20L, 0L))) {
      val expected = rows(s).filter(r => lo <= r._2 && r._2 < hi)
      assert(s.clip(lo, hi).map(rows) == Some(expected).filter(_.nonEmpty), s"clip($lo, $hi)")
    }
  }

  test("slice keeps indices a <= i < b of every array") {
    val s = series()
    assert(rows(s.slice(0, 3)) == rows(s))
    assert(rows(s.slice(1, 2)) == Seq((1L, 10L, 1.0, 0.0, 2.0)))
    assert(s.slice(2, 2).size == 0)
    assert(s.slice(-1, 10).size == 3, "bounds are clamped as by Array.slice")
  }

  test("mbb covers all samples in x") {
    val s = series(xs = Array(3.0, -1.0, 2.0))
    val (minX, maxX, _, _, _, _) = s.mbb
    assert(minX == -1.0 && maxX == 3.0)
  }

  test("mbb covers all samples in y") {
    val s = series(ys = Array(5.0, 9.0, -2.0))
    val (_, _, minY, maxY, _, _) = s.mbb
    assert(minY == -2.0 && maxY == 9.0)
  }

  test("mbb temporal extent is the lifespan") {
    val (_, _, _, _, t0, t1) = series().mbb
    assert(t0 == 0L && t1 == 20L)
  }

  test("Assignment.Outlier sentinel is -1") {
    assert(Assignment.Outlier == -1)
  }

  test("LabeledPoint retains the planted label") {
    val lp = LabeledPoint(1L, 5L, 0.5, 0.6, 3)
    assert(lp.label == 3 && lp.t == 5L)
  }

  test("TrajPoint is a plain carrier of (objId, t, x, y)") {
    val p = TrajPoint(2L, 30L, 1.5, -2.5)
    assert(p.objId == 2L && p.t == 30L && p.x == 1.5 && p.y == -2.5)
  }
}
