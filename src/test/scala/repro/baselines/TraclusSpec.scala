package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.Traclus.{Params, Seg}
import repro.model.Series

class TraclusSpec extends AnyFunSuite {

  private val P = Params(eps = 8.0, minLns = 2)

  private def seg(x1: Double, y1: Double, x2: Double, y2: Double, objId: Long = 1): Seg =
    Seg(objId, x1, y1, x2, y2, 0, 1)

  // ---------------------------------------------------------- partitioning

  test("a straight line partitions into its two endpoints") {
    val xs = Array.tabulate(20)(_.toDouble * 5)
    val ys = Array.fill(20)(0.0)
    val cps = Traclus.characteristicPoints(xs, ys)
    assert(cps.head == 0 && cps.last == 19)
    assert(cps.length <= 3, s"straight line over-partitioned: ${cps.toSeq}")
  }

  test("a right-angle turn introduces a characteristic point near the corner") {
    // MDL partitioning triggers when the deviation terms outweigh the
    // per-step encoding cost: a dense trace (2-unit spacing, corner 5 steps
    // in).
    val xs = Array.tabulate(6)(_.toDouble * 2) ++ Array.fill(8)(10.0)
    val ys = Array.fill(6)(0.0) ++ Array.tabulate(8)(i => (i + 1).toDouble * 2)
    val cps = Traclus.characteristicPoints(xs, ys)
    assert(cps.length >= 3, s"expected a partition point at the corner: ${cps.toSeq}")
    assert(cps.exists(i => i != 0 && i != 13 && math.abs(i - 5) <= 4),
      s"no CP near the corner: ${cps.toSeq}")
  }

  test("a switcher-shaped path gets a characteristic point at its mid-life turn") {
    // E3's switchers: 120 samples 8 units apart with jitter 0.4, turning by
    // 90-180 degrees after sample 59. The per-segment L(D|H) of [5] grows with
    // every step past the turn, so one segment stops being the cheaper
    // description there. Sharper folds are cut later, because their
    // perpendicular distances grow slowly: at 165 degrees six samples after
    // the turn, at exactly 180 (back along its own line) near the end.
    val rnd = new scala.util.Random(7)
    for (turn <- Seq(90, 110, 130, 150); side <- Seq(1, -1)) {
      val theta0 = rnd.nextDouble() * 2 * math.Pi
      val theta1 = theta0 + side * math.toRadians(turn)
      var x = 0.0; var y = 0.0
      val path = Array.tabulate(120) { s =>
        if (s > 0) {
          val th = if (s >= 60) theta1 else theta0
          x += 8 * math.cos(th); y += 8 * math.sin(th)
        }
        (x + rnd.nextGaussian() * 0.4, y + rnd.nextGaussian() * 0.4)
      }
      val cps = Traclus.characteristicPoints(path.map(_._1), path.map(_._2))
      assert(cps.exists(i => i != 0 && i != 119 && math.abs(i - 59) <= 3),
        s"turn $turn (side $side): no characteristic point near sample 59 in ${cps.toSeq}")
    }
  }

  test("trajectories shorter than 2 points partition trivially") {
    assert(Traclus.characteristicPoints(Array(1.0), Array(1.0)).toSeq == Seq(0))
    assert(Traclus.characteristicPoints(Array.empty, Array.empty).isEmpty)
  }

  test("partition covers the trajectory with contiguous segments") {
    val rnd = new scala.util.Random(2)
    var x = 0.0; var y = 0.0
    val xs = Array.fill(50) { x += rnd.nextDouble() * 10; x }
    val ys = Array.fill(50) { y += rnd.nextGaussian() * 5; y }
    val segs = Traclus.partition(1L, xs, ys)
    assert(segs.head.i0 == 0 && segs.last.i1 == 49)
    segs.sliding(2).foreach {
      case Array(a, b) => assert(a.i1 == b.i0)
      case _           => ()
    }
  }

  // ------------------------------------------------------ segment distance

  test("distance of a segment to itself is zero") {
    val s = seg(0, 0, 10, 0)
    assert(Traclus.segDistance(s, s) < 1e-9)
  }

  test("parallel segments at offset d have distance ~d (perpendicular term)") {
    val a = seg(0, 0, 10, 0)
    val b = seg(0, 3, 10, 3)
    val d = Traclus.segDistance(a, b)
    assert(math.abs(d - 3.0) < 1e-6, s"expected ~3, got $d")
  }

  test("perpendicular segments pay an angular penalty") {
    val a = seg(0, 0, 10, 0)
    val b = seg(5, -5, 5, 5)
    val d = Traclus.segDistance(a, b)
    assert(d >= 10.0, s"angular distance should contribute the full short length, got $d")
  }

  test("collinear but shifted segments pay a parallel penalty") {
    val a = seg(0, 0, 10, 0)
    val b = seg(20, 0, 30, 0)
    val d = Traclus.segDistance(a, b)
    assert(d >= 10.0 - 1e-9, s"expected parallel shift >= 10, got $d")
  }

  test("segment distance is symmetric") {
    val a = seg(0, 0, 10, 2)
    val b = seg(3, 8, 15, 5)
    assert(math.abs(Traclus.segDistance(a, b) - Traclus.segDistance(b, a)) < 1e-9)
  }

  test("anti-parallel segments are far apart (angular term uses full length)") {
    val a = seg(0, 0, 10, 0)
    val b = seg(10, 1, 0, 1)
    assert(Traclus.segDistance(a, b) >= 10.0)
  }

  // ---------------------------------------------------------------- DBSCAN

  test("two lanes of parallel segments form two clusters") {
    val laneA = (0 until 5).map(i => seg(0, i * 0.5, 20, i * 0.5, objId = i))
    val laneB = (0 until 5).map(i => seg(500, 500 + i * 0.5, 520, 500 + i * 0.5, objId = 10 + i))
    val segs = (laneA ++ laneB).toArray
    val labels = Traclus.cluster(segs, P.copy(minLns = 3))
    assert(labels.take(5).distinct.length == 1 && labels.take(5).head >= 0)
    assert(labels.drop(5).distinct.length == 1 && labels.drop(5).head >= 0)
    assert(labels.take(5).head != labels.drop(5).head)
  }

  test("isolated segments are noise") {
    val segs = Array(seg(0, 0, 10, 0, 1), seg(1000, 0, 1010, 0, 2), seg(0, 1000, 10, 1000, 3))
    val labels = Traclus.cluster(segs, P.copy(minLns = 2))
    assert(labels.forall(_ == -1))
  }

  test("the |PTR| check dissolves clusters drawn from too few trajectories") {
    // 5 segments, all from the same single trajectory
    val segs = (0 until 5).map(i => seg(i * 2.0, 0, i * 2.0 + 2, 0, objId = 7)).toArray
    val labels = Traclus.cluster(segs, P.copy(minLns = 3))
    assert(labels.forall(_ == -1), "a cluster from one trajectory must dissolve")
  }

  test("cluster ids are consecutive from 0") {
    val laneA = (0 until 4).map(i => seg(0, i * 0.5, 20, i * 0.5, objId = i))
    val laneB = (0 until 4).map(i => seg(300, i * 0.5, 320, i * 0.5, objId = 10 + i))
    val labels = Traclus.cluster((laneA ++ laneB).toArray, P.copy(minLns = 3))
    val ids = labels.filter(_ >= 0).distinct.sorted
    assert(ids.toSeq == ids.indices.toSeq)
  }

  // ------------------------------------------------------------------- run

  test("end-to-end: two spatial lanes are discovered from raw trajectories") {
    def lane(y0: Double, objId: Long): Series =
      Series(objId, Array.tabulate(15)(_ * 10L), Array.tabulate(15)(_.toDouble * 5),
             Array.fill(15)(y0), new Array[Double](15))
    val trajs = (0 until 4).map(i => lane(i * 0.5, i)) ++
                (0 until 4).map(i => lane(800 + i * 0.5, 10 + i))
    val (segs, labels) = Traclus.run(trajs, P.copy(minLns = 3))
    assert(segs.nonEmpty)
    val clusters = labels.filter(_ >= 0).distinct
    assert(clusters.length == 2, s"expected 2 lane clusters, got ${clusters.length}")
  }

  test("TRACLUS is time-blind: lanes at disjoint times still merge (the limitation)") {
    // Same spatial lane, but objects 0-2 move early and 3-5 move late; a
    // time-aware method must separate them — TRACLUS cannot, by design.
    def lane(objId: Long): Series =
      Series(objId, Array.tabulate(15)(i => (if (objId < 3) 0L else 100000L) + i * 10L),
             Array.tabulate(15)(_.toDouble * 5), Array.fill(15)(objId * 0.3), new Array[Double](15))
    val trajs = (0L until 6L).map(lane)
    val (_, labels) = Traclus.run(trajs, P.copy(minLns = 3))
    val clusters = labels.filter(_ >= 0).distinct
    assert(clusters.length == 1, "spatial-only clustering merges across time")
  }
}
