package repro.clustering

import repro.SparkSpec
import repro.model.{Assignment, Series, SubTraj}

class GreedyClusteringSpec extends SparkSpec {

  private def sub(objId: Long, y0: Double, t0: Long = 0L, n: Int = 10,
                  subId: Int = 0): SubTraj =
    SubTraj(Series(objId, Array.tabulate(n)(i => t0 + i * 10L),
                   Array.tabulate(n)(_.toDouble), Array.fill(n)(y0), Array.fill(n)(1.0)), subId)

  private val eps = 5.0
  private val frac = 0.5

  test("a sub-trajectory within eps of a representative joins its cluster") {
    val reps = Array(sub(100, 0))
    val a = GreedyClustering.assignOne(sub(1, 2), reps, eps, frac)
    assert(a.clusterId == 0)
    assert(math.abs(a.dist - 2.0) < 1e-9)
  }

  test("a far sub-trajectory is an outlier") {
    val reps = Array(sub(100, 0))
    val a = GreedyClustering.assignOne(sub(1, 50), reps, eps, frac)
    assert(a.clusterId == Assignment.Outlier)
    assert(a.dist.isPosInfinity)
  }

  test("the nearest of several representatives wins") {
    val reps = Array(sub(100, 0), sub(101, 4))
    val a = GreedyClustering.assignOne(sub(1, 3), reps, eps, frac)
    assert(a.clusterId == 1)
  }

  test("temporally disjoint representative cannot claim a sub-trajectory") {
    val reps = Array(sub(100, 0, t0 = 100000))
    val a = GreedyClustering.assignOne(sub(1, 0), reps, eps, frac)
    assert(a.clusterId == Assignment.Outlier)
  }

  test("insufficient overlap fraction means outlier even when spatially close") {
    // rep covers only the last sample of a long sub-trajectory
    val longSub = sub(1, 0, t0 = 0, n = 100)
    val rep = sub(100, 0, t0 = 990, n = 2)
    val a = GreedyClustering.assignOne(longSub, Array(rep), eps, frac)
    assert(a.clusterId == Assignment.Outlier)
  }

  test("with no representatives everything is an outlier") {
    val as = GreedyClustering.assignLocal(Array(sub(1, 0), sub(2, 9)), Array.empty, eps, frac)
    assert(as.forall(_.clusterId == Assignment.Outlier))
  }

  test("a representative assigns to its own cluster at distance zero") {
    val r = sub(100, 0)
    val a = GreedyClustering.assignOne(r, Array(sub(99, 50), r), eps, frac)
    assert(a.clusterId == 1 && a.dist == 0.0)
  }

  test("assignLocal preserves input order and covers every sub-trajectory") {
    val subs = Array(sub(1, 0), sub(2, 2), sub(3, 80))
    val as = GreedyClustering.assignLocal(subs, Array(sub(100, 1)), eps, frac)
    assert(as.map(_.objId).toSeq == Seq(1L, 2L, 3L))
    assert(as.count(_.clusterId == 0) == 2)
    assert(as.count(_.clusterId == Assignment.Outlier) == 1)
  }

  test("distributed assignment equals local assignment") {
    import spark.implicits._
    val subs = Array.tabulate(30)(i => sub(i, (i % 5) * 30.0, subId = 0))
    val reps = Array(sub(100, 0), sub(101, 60), sub(102, 120))
    val local = GreedyClustering.assignLocal(subs, reps, eps, frac)
      .map(a => (a.objId, a.subId) -> a.clusterId).toMap
    val dist = GreedyClustering.assign(spark.createDataset(subs.toIndexedSeq), reps, eps, frac)
      .collect().map(a => (a.objId, a.subId) -> a.clusterId).toMap
    assert(dist == local)
  }

  test("assignment distance is the time-sync distance to the winning representative") {
    val reps = Array(sub(100, 0), sub(101, 10))
    val a = GreedyClustering.assignOne(sub(1, 8), reps, eps, frac)
    assert(a.clusterId == 1)
    assert(math.abs(a.dist - 2.0) < 1e-9)
  }
}
