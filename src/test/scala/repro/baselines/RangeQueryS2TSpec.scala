package repro.baselines

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.Timing.record
import repro.core.S2TClustering
import repro.traj.TrajGen

class RangeQueryS2TSpec extends SparkSpec {

  private val genParams = TrajGen.Params(nGroups = 2, perGroup = 5, nNoise = 3,
                                         tSteps = 40, seed = 23L)
  private lazy val pointsDf = TrajGen.points(TrajGen.generate(spark, genParams)).cache()

  test("oracle: the temporal range query matches DuckDB") {
    val w0 = 100L; val w1 = 300L
    val sparkSide = pointsDf.where(col("t") >= w0 && col("t") < w1)
      .groupBy("obj_id").agg(count(lit(1)) as "n")
    val sql =
      s"""SELECT CAST(obj_id AS BIGINT) AS obj_id, COUNT(*) AS n
         |FROM pts WHERE CAST(t AS BIGINT) >= $w0 AND CAST(t AS BIGINT) < $w1
         |GROUP BY 1""".stripMargin
    Oracle.assertEquivalent(sparkSide, sql, "pts" -> pointsDf)
  }

  test("a window with no records yields an empty result") {
    val r = RangeQueryS2T.query(pointsDf, 100000L, 200000L, S2TClustering.Params())
    assert(r.subs.isEmpty && r.reps.isEmpty)
  }

  test("clustering sees only the windowed samples") {
    val w0 = 100L; val w1 = 300L
    val r = RangeQueryS2T.query(pointsDf, w0, w1, S2TClustering.Params())
    r.subs.foreach { s =>
      assert(s.tStart >= w0 && s.tEnd < w1, s"sub-trajectory leaked outside W")
    }
  }

  test("the baseline finds the planted lanes in a window") {
    val r = RangeQueryS2T.query(pointsDf, 0L, 400L, S2TClustering.Params())
    assert(r.nClusters >= genParams.nGroups)
  }

  test("timings cover the range query and every S2T phase") {
    val (_, s) = record(RangeQueryS2T.query(pointsDf, 0L, 200L, S2TClustering.Params()))
    assert(s.ms.keys.toSeq ==
      Seq("range query", "voting", "segmentation", "sampling", "assignment"))
    assert(s.ms.values.forall(_ >= 0))
    assert(s.ms.values.sum <= s.totalMs)
  }

  test("a rejected query releases the window it cached") {
    pointsDf.count() // the input's own cache is not the query's
    val dup = pointsDf.union(pointsDf.where("obj_id = 0 AND t = 0"))
    assertRejectedWithoutLeak("duplicate samples")(RangeQueryS2T.query(dup, 0L, 200L, S2TClustering.Params()))
  }
}
