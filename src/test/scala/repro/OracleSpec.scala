package repro

import org.apache.spark.sql.functions._
import repro.traj.TrajGen

/** Self-tests of the DuckDB oracle harness, over a small generated MOD. */
class OracleSpec extends SparkSpec {

  private lazy val pts = TrajGen.points(TrajGen.generate(spark,
    TrajGen.Params(nGroups = 2, perGroup = 4, nNoise = 2, tSteps = 30, seed = 5L)))

  private val sql =
    """SELECT obj_id, COUNT(*) AS n, MIN(CAST(t AS BIGINT)) AS t0
      |FROM pts GROUP BY obj_id""".stripMargin

  test("oracle: per-object sample counts and start times match DuckDB") {
    val sparkSide = pts.groupBy("obj_id").agg(count(lit(1)) as "n", min("t") as "t0")
    Oracle.assertEquivalent(sparkSide, sql, "pts" -> pts)
  }

  test("oracle: detects a wrong result") {
    val wrong = pts.groupBy("obj_id").agg((count(lit(1)) + 1) as "n", min("t") as "t0")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, sql, "pts" -> pts)
    }
  }

  test("oracle: rejects column-name mismatches") {
    val sparkSide = pts.groupBy("obj_id").agg(count(lit(1)) as "wrong_name", min("t") as "t0")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(sparkSide, sql, "pts" -> pts)
    }
  }
}
