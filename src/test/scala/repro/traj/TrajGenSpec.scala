package repro.traj

import repro.SparkSpec
import repro.model.{Series, TrajDistance}

class TrajGenSpec extends SparkSpec {

  private val p = TrajGen.Params(nGroups = 3, perGroup = 5, nNoise = 4, tSteps = 50, seed = 7L)

  test("generator is deterministic in the seed") {
    val a = TrajGen.generateLocal(p)
    val b = TrajGen.generateLocal(p)
    assert(a.toSeq == b.toSeq)
  }

  test("different seeds give different data") {
    val a = TrajGen.generateLocal(p)
    val b = TrajGen.generateLocal(p.copy(seed = 8L))
    assert(a.toSeq != b.toSeq)
  }

  test("object count matches nGroups*perGroup + nNoise") {
    val objs = TrajGen.generateLocal(p).map(_.objId).distinct
    assert(objs.length == p.nObjects)
    assert(p.nObjects == 19)
  }

  test("full-span groups and noise emit tSteps samples per object") {
    val byObj = TrajGen.generateLocal(p).groupBy(_.objId)
    byObj.values.foreach(pts => assert(pts.length == p.tSteps))
  }

  test("timestamps are multiples of dt") {
    assert(TrajGen.generateLocal(p).forall(_.t % TrajGen.Dt == 0))
  }

  test("noise objects are labelled -1 throughout") {
    val pts = TrajGen.generateLocal(p)
    val noiseIds = (p.nGroups * p.perGroup until p.nObjects).map(_.toLong).toSet
    assert(pts.filter(lp => noiseIds(lp.objId)).forall(_.label == -1))
  }

  test("non-switching group members carry their group label throughout") {
    val pts = TrajGen.generateLocal(p) // switchFrac = 0
    for (g <- 0 until p.nGroups; m <- 0 until p.perGroup) {
      val objId = (g * p.perGroup + m).toLong
      assert(pts.filter(_.objId == objId).forall(_.label == g))
    }
  }

  test("group members stay close to each other (lane cohesion)") {
    val pts = TrajGen.generateLocal(p).groupBy(_.objId)
    def series(objId: Long) = Series.fromRows(pts(objId).map(q => (q.objId, q.t, q.x, q.y, 0.0)))
    val (d, _) = TrajDistance.timeSyncStats(series(0L), series(1L)) // same group
    assert(d < 6 * TrajGen.LaneWidth, s"lane mates drifted apart: d=$d")
  }

  test("members of different groups are usually far apart") {
    val pts = TrajGen.generateLocal(p.copy(seed = 11L)).groupBy(_.objId)
    def series(objId: Long) = Series.fromRows(pts(objId).map(q => (q.objId, q.t, q.x, q.y, 0.0)))
    // the first member of group 1
    val (d, _) = TrajDistance.timeSyncStats(series(0L), series(p.perGroup.toLong))
    assert(d > 20.0, s"groups overlap unusually closely: d=$d")
  }

  test("switchFrac marks post-divergence samples as -1") {
    val pp = p.copy(switchFrac = 0.4) // 2 of 5 members switch
    val pts = TrajGen.generateLocal(pp)
    val switcher = pts.filter(_.objId == 0L).sortBy(_.t)
    assert(switcher.take(pp.tSteps / 2).forall(_.label == 0))
    assert(switcher.drop(pp.tSteps / 2).forall(_.label == -1))
    // non-switching member of the same group keeps the label
    val stayer = pts.filter(_.objId == 4L)
    assert(stayer.forall(_.label == 0))
  }

  test("a switching member actually diverges spatially from its lane") {
    val pp = p.copy(switchFrac = 0.4, jitter = 0.0)
    val pts = TrajGen.generateLocal(pp).groupBy(_.objId)
    val sw = pts(0L).sortBy(_.t)   // switcher
    val st = pts(4L).sortBy(_.t)   // stayer, same group
    val distEnd = math.hypot(sw.last.x - st.last.x, sw.last.y - st.last.y)
    assert(distEnd > 50.0, s"switcher should end far from the lane, was $distEnd")
  }

  test("DataFrame generation carries the expected schema and row count") {
    val df = TrajGen.generate(spark, p)
    assert(df.columns.toSeq == Seq("obj_id", "t", "x", "y", "label"))
    assert(df.count() == TrajGen.generateLocal(p).length)
  }

  test("points() strips the label column") {
    val df = TrajGen.points(TrajGen.generate(spark, p))
    assert(df.columns.toSeq == Seq("obj_id", "t", "x", "y"))
  }
}
