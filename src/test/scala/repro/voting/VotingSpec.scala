package repro.voting

import scala.util.Random

import org.apache.spark.sql.catalyst.expressions.Attribute
import org.apache.spark.sql.catalyst.plans.physical.HashPartitioning
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanExec
import org.apache.spark.sql.execution.exchange.{REPARTITION_BY_NUM, ShuffleExchangeLike}
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.baselines.NaiveVoting
import repro.model.TrajPoint
import repro.traj.TrajGen

class VotingSpec extends SparkSpec {

  private def df(pts: Seq[TrajPoint]) = {
    import spark.implicits._
    pts.map(p => (p.objId, p.t, p.x, p.y)).toDF("obj_id", "t", "x", "y")
  }

  test("a lone object receives zero votes") {
    val pts = Seq(TrajPoint(1, 0, 0, 0), TrajPoint(1, 10, 1, 0))
    val got = Voting.votes(df(pts), sigma = 1.5).collect()
    assert(got.length == 2)
    assert(got.forall(_.getAs[Double]("vote") == 0.0))
  }

  test("two coincident objects vote 1.0 for each other") {
    val pts = Seq(TrajPoint(1, 0, 5, 5), TrajPoint(2, 0, 5, 5))
    val got = Voting.votes(df(pts), sigma = 1.5).collect()
    assert(got.length == 2)
    got.foreach(r => assert(math.abs(r.getAs[Double]("vote") - 1.0) < 1e-9))
  }

  test("vote follows the Gaussian kernel of the distance") {
    val sigma = 2.0
    val d = 3.0
    val pts = Seq(TrajPoint(1, 0, 0, 0), TrajPoint(2, 0, d, 0))
    val got = Voting.votes(df(pts), sigma).collect()
    val expected = math.exp(-d * d / (2 * sigma * sigma))
    got.foreach(r => assert(math.abs(r.getAs[Double]("vote") - expected) < 1e-9))
  }

  test("objects beyond the 3-sigma cutoff contribute nothing") {
    val sigma = 1.0
    val pts = Seq(TrajPoint(1, 0, 0, 0), TrajPoint(2, 0, 3.5, 0))
    val got = Voting.votes(df(pts), sigma).collect()
    got.foreach(r => assert(r.getAs[Double]("vote") == 0.0))
  }

  test("a pair exactly at the cutoff still contributes (closed ball)") {
    val sigma = 1.0
    val pts = Seq(TrajPoint(1, 0, 0, 0), TrajPoint(2, 0, 3.0, 0))
    val got = Voting.votes(df(pts), sigma).collect()
    got.foreach(r => assert(r.getAs[Double]("vote") > 0.0))
  }

  test("objects at different timestamps never vote for each other") {
    val pts = Seq(TrajPoint(1, 0, 0, 0), TrajPoint(2, 10, 0, 0))
    val got = Voting.votes(df(pts), sigma = 1.5).collect()
    got.foreach(r => assert(r.getAs[Double]("vote") == 0.0))
  }

  test("votes accumulate over multiple co-located objects") {
    val pts = (1L to 5L).map(o => TrajPoint(o, 0, 0, 0))
    val got = Voting.votes(df(pts), sigma = 1.5).collect()
    got.foreach(r => assert(math.abs(r.getAs[Double]("vote") - 4.0) < 1e-9))
  }

  test("an object never votes for itself even when co-located with itself in time") {
    // one object, two samples at different t — no same-t other-object pair exists
    val pts = Seq(TrajPoint(1, 0, 0, 0), TrajPoint(1, 10, 0, 0), TrajPoint(2, 0, 100, 100))
    val got = Voting.votes(df(pts), sigma = 1.5).collect()
    got.foreach(r => assert(r.getAs[Double]("vote") == 0.0))
  }

  test("pairs straddling a grid-cell border are still found") {
    val sigma = 1.0 // cell = 3.0
    val pts = Seq(TrajPoint(1, 0, 2.9, 0), TrajPoint(2, 0, 3.1, 0)) // cells 0 and 1
    val got = Voting.votes(df(pts), sigma).collect()
    val expected = math.exp(-0.2 * 0.2 / 2.0)
    got.foreach(r => assert(math.abs(r.getAs[Double]("vote") - expected) < 1e-9))
  }

  test("negative coordinates bucket correctly (floor, not truncation)") {
    val sigma = 1.0
    val pts = Seq(TrajPoint(1, 0, -0.1, 0), TrajPoint(2, 0, 0.1, 0))
    val got = Voting.votes(df(pts), sigma).collect()
    got.foreach(r => assert(r.getAs[Double]("vote") > 0.9))
  }

  test("rejects non-positive sigma") {
    intercept[IllegalArgumentException] { Voting.votes(df(Seq(TrajPoint(1, 0, 0, 0))), 0.0) }
  }

  test("Spark votes equal the local reference on a generated MOD") {
    val p = TrajGen.Params(nGroups = 2, perGroup = 5, nNoise = 3, tSteps = 20, seed = 5L)
    val local = TrajGen.generateLocal(p).map(lp => TrajPoint(lp.objId, lp.t, lp.x, lp.y))
    val expected = Voting.votesLocal(local, sigma = 1.5)
    val got = Voting.votes(df(local.toSeq), sigma = 1.5).collect()
    assert(got.length == local.length)
    got.foreach { r =>
      val k = (r.getAs[Long]("obj_id"), r.getAs[Long]("t"))
      assert(math.abs(r.getAs[Double]("vote") - expected(k)) < 1e-9, s"mismatch at $k")
    }
  }

  test("votedSeries starts only the jobs of collecting the votes") {
    val p = TrajGen.Params(nGroups = 2, perGroup = 5, nNoise = 3, tSteps = 20, seed = 5L)
    val pts = TrajGen.points(TrajGen.generate(spark, p)).cache()
    try {
      pts.count() // the input's own cache is not voting's
      val collect = jobsDuring(Voting.votes(pts, 1.5).collect())
      assert(collect >= 1)
      assert(jobsDuring(Voting.votedSeries(pts, 1.5)) == collect)
    } finally pts.unpersist()
  }

  test("votesLocal is symmetric in contribution for a pair") {
    val pts = Array(TrajPoint(1, 0, 0, 0), TrajPoint(2, 0, 2, 0))
    val v = Voting.votesLocal(pts, sigma = 1.5)
    assert(math.abs(v((1L, 0L)) - v((2L, 0L))) < 1e-12)
  }

  test("group members get much higher votes than noise objects") {
    val p = TrajGen.Params(nGroups = 1, perGroup = 8, nNoise = 4, tSteps = 30, seed = 2L)
    val labeled = TrajGen.generateLocal(p)
    val local = labeled.map(lp => TrajPoint(lp.objId, lp.t, lp.x, lp.y))
    val v = Voting.votesLocal(local, sigma = 1.5)
    val groupMean = labeled.filter(_.label == 0).map(lp => v((lp.objId, lp.t))).sum /
      labeled.count(_.label == 0)
    val noiseMean = labeled.filter(_.label == -1).map(lp => v((lp.objId, lp.t))).sum /
      math.max(1, labeled.count(_.label == -1))
    assert(groupMean > 1.0, s"group voting too weak: $groupMean")
    assert(groupMean > 5 * (noiseMean + 0.01), s"separation too weak: $groupMean vs $noiseMean")
  }

  test("oracle: Spark voting equals a set-based DuckDB self-join") {
    val sigma = 1.5
    val cut2 = Voting.cutoff(sigma) * Voting.cutoff(sigma)
    val p = TrajGen.Params(nGroups = 2, perGroup = 4, nNoise = 2, tSteps = 10, seed = 9L)
    val pts = TrajGen.points(TrajGen.generate(spark, p))
    val sparkSide = Voting.votes(pts, sigma)
      .select(col("obj_id"), col("t"), round(col("vote"), 3) as "vote")
    val sql =
      s"""
         |SELECT CAST(p.obj_id AS BIGINT) AS obj_id,
         |       CAST(p.t AS BIGINT) AS t,
         |       ROUND(COALESCE(SUM(
         |         CASE WHEN (CAST(p.x AS DOUBLE) - CAST(q.x AS DOUBLE)) * (CAST(p.x AS DOUBLE) - CAST(q.x AS DOUBLE)) +
         |                   (CAST(p.y AS DOUBLE) - CAST(q.y AS DOUBLE)) * (CAST(p.y AS DOUBLE) - CAST(q.y AS DOUBLE)) <= $cut2
         |              THEN EXP(-((CAST(p.x AS DOUBLE) - CAST(q.x AS DOUBLE)) * (CAST(p.x AS DOUBLE) - CAST(q.x AS DOUBLE)) +
         |                         (CAST(p.y AS DOUBLE) - CAST(q.y AS DOUBLE)) * (CAST(p.y AS DOUBLE) - CAST(q.y AS DOUBLE))) / ${2 * sigma * sigma})
         |              ELSE 0 END), 0), 3) AS vote
         |FROM pts p
         |LEFT JOIN pts q
         |  ON p.t = q.t AND p.obj_id <> q.obj_id
         |GROUP BY 1, 2
         |""".stripMargin
    Oracle.assertEquivalent(sparkSide, sql, "pts" -> pts)
  }

  private def rootCause(e: Throwable): Throwable =
    Iterator.iterate(e)(_.getCause).takeWhile(_ != null).toSeq.last

  /** Runs `body` and checks it fails with an IllegalArgumentException (as the
    * root cause, for the Spark path) whose message contains every `parts`.
    */
  private def assertRejected(parts: String*)(body: => Any): Unit = {
    val e = rootCause(intercept[Exception](body))
    assert(e.isInstanceOf[IllegalArgumentException], s"got $e")
    parts.foreach(part => assert(e.getMessage.contains(part), s"'${e.getMessage}' lacks '$part'"))
  }

  private val duplicated = Seq(TrajPoint(3, 0, 0, 0), TrajPoint(7, 10, 1, 1),
                               TrajPoint(3, 10, 0, 0), TrajPoint(7, 10, 50, 50))

  test("duplicate (obj_id, t) samples are rejected on the Spark path") {
    assertRejected("duplicate", "object 7", "t=10") { Voting.votes(df(duplicated), 1.5).collect() }
  }

  test("duplicate (obj_id, t) samples are rejected by votesLocal") {
    assertRejected("duplicate", "object 7", "t=10") { Voting.votesLocal(duplicated.toArray, 1.5) }
  }

  private val nonFinite = Seq(
    Seq(TrajPoint(1, 0, 0, 0), TrajPoint(2, 20, Double.NaN, 0)),
    Seq(TrajPoint(1, 20, 0, 0), TrajPoint(2, 20, 0, Double.NegativeInfinity)))

  test("non-finite coordinates are rejected on the Spark path") {
    nonFinite.foreach(pts =>
      assertRejected("non-finite", "object 2", "t=20") { Voting.votes(df(pts), 1.5).collect() })
  }

  test("non-finite coordinates are rejected by votesLocal") {
    nonFinite.foreach(pts =>
      assertRejected("non-finite", "object 2", "t=20") { Voting.votesLocal(pts.toArray, 1.5) })
  }

  test("a pair exactly at the cutoff across a diagonal cell votes exp(-4.5)") {
    val sigma = 5.0 / 3 // cutoff 5: a 3-4-5 offset is exactly the cutoff
    assert(Voting.cutoff(sigma) == 5.0)
    def vote(a: (Double, Double), d: (Double, Double)) =
      Voting.kernel(0, Array(1L, 2L), Array(a._1, a._1 + d._1), Array(a._2, a._2 + d._2), sigma)
    // cells (0,0)->(1,1), (0,0)->(1,-1), (0,0)->(-1,1), (-1,-1)->(-2,-2)
    for ((a, d) <- Seq(((4.5, 4.5), (3.0, 4.0)), ((4.5, 0.5), (3.0, -4.0)),
                       ((0.5, 4.5), (-4.0, 3.0)), ((-4.5, -4.5), (-3.0, -4.0))))
      vote(a, d).foreach(v => assert(math.abs(v - math.exp(-4.5)) < 1e-12, s"$a + $d: $v"))
    assert(vote((4.5, 4.5), (3.0, 4.000001)).forall(_ == 0.0))
  }

  /** Random timestamps mixing the layouts the grid must get right. Cutoffs
    * are exact binary fractions, so border and cutoff cases are exact.
    */
  private def randomMod(seed: Int): (Double, Array[TrajPoint]) = {
    val rnd = new Random(seed)
    val cut = Seq(2.5, 5.0, 10.0)(rnd.nextInt(3))
    val sigma = cut / 3
    assert(Voting.cutoff(sigma) == cut)
    def objects(n: Int) = rnd.shuffle((1L to 40L).toList).take(n)
    def cellCorner() = (cut * (rnd.nextInt(9) - 4), cut * (rnd.nextInt(9) - 4))
    val pts = (0L until 15L).flatMap { step =>
      val t = step * 10
      step % 5 match {
        case 0 => // uniform over negative and positive coordinates
          objects(10 + rnd.nextInt(20)).map(o =>
            TrajPoint(o, t, (rnd.nextDouble() - 0.5) * 8 * cut, (rnd.nextDouble() - 0.5) * 8 * cut))
        case 1 => // on cell borders: x = k·3σ and/or y = m·3σ
          objects(15).map { o =>
            val (x, y) = cellCorner()
            TrajPoint(o, t, x, if (rnd.nextBoolean()) y else y + rnd.nextDouble() * cut)
          }
        case 2 => // pairs exactly at the cutoff, across a diagonal or an edge
          objects(12).grouped(2).flatMap { case Seq(a, b) =>
            val (x, y) = cellCorner()
            val (ax, ay) = (x + 0.75 * cut, y + 0.5 * cut)
            val (dx, dy) = Seq((0.6, 0.8), (0.6, -0.8), (-0.8, 0.6), (1.0, 0.0), (0.0, -1.0))(rnd.nextInt(5))
            Seq(TrajPoint(a, t, ax, ay), TrajPoint(b, t, ax + dx * cut, ay + dy * cut))
          }.toSeq
        case 3 => // all points in one cell
          val (x, y) = cellCorner()
          objects(8).map(o => TrajPoint(o, t, x + rnd.nextDouble() * cut * 0.99,
                                        y + rnd.nextDouble() * cut * 0.99))
        case _ => // a lone sample
          objects(1).map(o => TrajPoint(o, t, rnd.nextGaussian() * cut, rnd.nextGaussian() * cut))
      }
    }
    (sigma, rnd.shuffle(pts).toArray)
  }

  test("property: votes, votesLocal and NaiveVoting agree on random inputs") {
    for (seed <- 1 to 24) {
      val (sigma, pts) = randomMod(seed)
      val naive = NaiveVoting.votes(pts, sigma)
      val local = Voting.votesLocal(pts, sigma)
      val spark = Voting.votes(df(pts.toSeq), sigma).collect()
        .map(r => (r.getAs[Long]("obj_id"), r.getAs[Long]("t")) -> r.getAs[Double]("vote")).toMap
      assert(local.size == pts.length && spark.size == pts.length, s"seed $seed")
      pts.indices.foreach { i =>
        val k = (pts(i).objId, pts(i).t)
        assert(math.abs(local(k) - naive(i)) <= 1e-9, s"seed $seed at $k: local ${local(k)} vs ${naive(i)}")
        assert(math.abs(spark(k) - naive(i)) <= 1e-9, s"seed $seed at $k: spark ${spark(k)} vs ${naive(i)}")
      }
      assert(naive.exists(_ > 0) && naive.contains(0.0), s"seed $seed exercises too little")
    }
  }

  /** The generated MOD and six random ones, each with its sigma. */
  private lazy val partitioningMods = {
    val p = TrajGen.Params(nGroups = 2, perGroup = 5, nNoise = 3, tSteps = 20, seed = 5L)
    val generated = TrajGen.generateLocal(p).map(lp => TrajPoint(lp.objId, lp.t, lp.x, lp.y))
    (generated, 1.5) +: (1 to 6).map(randomMod(_).swap)
  }

  /** Checks that `got` holds one row per point of `pts`, voted as [[Voting.votesLocal]] votes it. */
  private def assertVotedLocally(what: String, pts: Array[TrajPoint], sigma: Double,
                                 got: Array[org.apache.spark.sql.Row]): Unit = {
    val local = Voting.votesLocal(pts, sigma)
    assert(got.length == pts.length, what)
    got.foreach { r =>
      val k = (r.getAs[Long]("obj_id"), r.getAs[Long]("t"))
      assert(math.abs(r.getAs[Double]("vote") - local(k)) <= 1e-9, s"$what, at $k")
    }
  }

  test("votes do not depend on the number of shuffle partitions") {
    for (n <- Seq(1, 3, 64); (pts, sigma) <- partitioningMods)
      assertVotedLocally(s"$n partitions", pts, sigma, Voting.votes(df(pts.toSeq), sigma, n).collect())
  }

  test("votes do not depend on the input's partitioning") {
    for (n <- Seq(1, 3, 50); (pts, sigma) <- partitioningMods) {
      val in = df(pts.toSeq).repartition(n)
      assert(in.rdd.getNumPartitions == n)
      assertVotedLocally(s"$n input partitions", pts, sigma, Voting.votes(in, sigma).collect())
    }
  }

  test("the vote job reads its input in at most one task per core, whatever the input's partitioning") {
    val cores = spark.sparkContext.defaultParallelism
    val parts = math.max(50, 2 * cores)
    val pts = spark.range(0, 8L * parts, 1, parts).select(col("id") as "obj_id", col("id") % 3 as "t",
                                                          col("id").cast("double") as "x", lit(0.0) as "y")
    assert(pts.rdd.getNumPartitions == parts)
    val stages = stageTasksDuring(Voting.votes(pts, 1.5).collect())
    assert(stages.nonEmpty && stages.max <= cores, s"tasks per stage: $stages, $cores cores")
  }

  test("votes starts no Spark job until its result is consumed") {
    val p = TrajGen.Params(nGroups = 2, perGroup = 5, nNoise = 3, tSteps = 20, seed = 5L)
    val pts = TrajGen.points(TrajGen.generate(spark, p)).repartition(3)
    assert(jobsDuring(Voting.votes(pts, 1.5)) == 0)
  }

  test("votes keeps exactly the input's (obj_id, t) rows, extra columns dropped") {
    import spark.implicits._
    val p = TrajGen.Params(nGroups = 2, perGroup = 3, nNoise = 2, tSteps = 12, seed = 4L)
    val labeled = TrajGen.generate(spark, p)
    assert(labeled.columns.contains("label"))
    val got = Voting.votes(labeled, 1.5)
    assert(got.columns.toSeq == Seq("obj_id", "t", "x", "y", "vote"))
    val in = labeled.select("obj_id", "t").as[(Long, Long)].collect()
    val out = got.select("obj_id", "t").as[(Long, Long)].collect()
    assert(out.length == in.length)
    assert(out.sorted.toSeq == in.sorted.toSeq)
  }

  test("plan guard: Spark voting shuffles exactly once") {
    // Several input partitions and no exchange of their own (a local table
    // has one partition and would need none).
    val pts = spark.range(0, 24, 1, 4).select(col("id") as "obj_id", col("id") % 3 as "t",
                                              col("id").cast("double") as "x", lit(0.0) as "y")
    val plan = Voting.votes(pts, 1.5).queryExecution.executedPlan match {
      case a: AdaptiveSparkPlanExec => a.initialPlan // exchanges planned, AQE not yet run
      case p => p
    }
    val shuffles = plan.collect { case e: ShuffleExchangeLike => e }
    assert(shuffles.length == 1, s"expected one shuffle exchange, plan:\n$plan")
  }

  test("plan guard: the shuffle by t has one partition per core, whatever the session's count") {
    val key = "spark.sql.shuffle.partitions"
    val cores = spark.sparkContext.defaultParallelism
    val saved = spark.conf.get(key)
    try for (n <- Seq("64", "7")) {
      spark.conf.set(key, n)
      val pts = spark.range(0, 24, 1, 4).select(col("id") as "obj_id", col("id") % 3 as "t",
                                                col("id").cast("double") as "x", lit(0.0) as "y")
      val plan = Voting.votes(pts, 1.5).queryExecution.executedPlan match {
        case a: AdaptiveSparkPlanExec => a.initialPlan
        case p => p
      }
      plan.collect { case e: ShuffleExchangeLike => e } match {
        case Seq(e) =>
          assert(e.shuffleOrigin == REPARTITION_BY_NUM, s"session count $n, plan:\n$plan")
          e.outputPartitioning match {
            case HashPartitioning(Seq(a: Attribute), parts) =>
              assert(a.name == "t" && parts == cores, s"session count $n, plan:\n$plan")
            case other => fail(s"session count $n: partitioned by $other, plan:\n$plan")
          }
        case other => fail(s"session count $n: ${other.length} shuffle exchanges, plan:\n$plan")
      }
    } finally spark.conf.set(key, saved)
  }
}
