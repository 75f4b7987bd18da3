package repro.perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.clustering.GreedyClustering
import repro.core.S2TClustering
import repro.eval.Quality
import repro.exp.Experiments
import repro.model.{Assignment, SubTraj}
import repro.sampling.Sampling
import repro.traj.TrajGen
import repro.voting.{Segmentation, Voting}

/** `s2t-batch`: repeated S2T-Clustering over one cached MOD.
  *
  * Operation: `S2TClustering.run`. The timed phase lasts `--seconds` and at
  * least `MinRuns` S2T runs. The traced run composes voting →
  * segmentation → sampling → assignment itself, span by span, and checks
  * that the composition gives what `run` gives.
  */
object S2TBatch extends Workload {
  val Objects = 200
  val Steps = 180
  /** Warm set-ups per run, after a cold one that only warms up. */
  val SetupRepeats = 2
  /** S2T runs before the timed phase: the first takes about twice the
    * steady time, the second is within about 15 % of it.
    */
  val WarmUpRuns = 2
  /** S2T runs the timed phase makes at least, so that the median has samples. */
  val MinRuns = 5
  val AriGate = 0.5
  val params: S2TClustering.Params = S2TClustering.Params(maxReps = 128)

  final case class Out(subs: Array[SubTraj], reps: Array[SubTraj], assignments: Array[Assignment]) {
    lazy val digest: String = Checks.s2t(subs, reps, assignments)
  }

  def run(ctx: Ctx): Report = {
    import ctx._
    val mod = Experiments.mod(spark, Objects, Steps, seed = seed)

    var points: DataFrame = null
    def setUp(): Double = {
      if (points != null) points.unpersist(blocking = true)
      Workload.seconds {
        points = tracer.span("traj.generate") {
          val df = TrajGen.points(TrajGen.generate(spark, mod)).cache()
          df.count()
          df
        }
      }._2
    }
    val setupS = tracer.paused(setUp()) +: (1 to SetupRepeats).map(_ => setUp())
    val labeled = TrajGen.generateLocal(mod)
    val nPoints = labeled.length

    var reference: Out = null
    val warm = (1 to WarmUpRuns).map { _ =>
      Workload.seconds {
        val r = S2TClustering.run(points, params)
        reference = Out(r.subs, r.reps, r.assignments)
      }._2 * 1000
    }

    val truth = labeled.map(lp => (lp.objId, lp.t) -> lp.label).toMap
    val ari = {
      val subOf = reference.subs.map(s => s.key -> s).toMap
      Quality.ari(reference.assignments.toSeq.flatMap { a =>
        subOf((a.objId, a.subId)).ts.map(t => truth((a.objId, t)) -> a.clusterId)
      })
    }
    ops.check("ari") {
      if (ari >= AriGate) None else Some(f"S2T ARI $ari%.3f below the gate $AriGate")
    }

    val same: Out => Option[String] = o =>
      if (o.digest == reference.digest) None
      else Some(s"S2T output ${o.digest} differs from the first run's ${reference.digest}")

    val nonzeroVoteFrac = if (trace) nonzeroFrac(points) else Double.NaN
    val traced = scala.collection.mutable.ArrayBuffer.empty[Out]
    val running = measuring()
    var runs = 0
    val (_, phaseS) = Workload.seconds(while (runs < MinRuns || running()) {
      runs += 1
      if (!trace) {
        ops.timed("s2t") {
          val r = S2TClustering.run(points, params)
          Out(r.subs, r.reps, r.assignments)
        }(same)
      } else {
        ops.timed("s2t_traced")(composed(ctx, points))(same).foreach(traced += _)
      }
    })
    val heap = Workload.heapLiveMb()
    points.unpersist(blocking = true)

    Report(
      endToEnd = Map(
        "setup_s" -> Stats.median(setupS.drop(1)),
        "op_ms_p50" -> Stats.median(ops.ms("s2t")),
        "heap_live_mb" -> heap),
      perLayer = if (!trace) Map.empty else layerMetrics(ctx, traced.toSeq, nonzeroVoteFrac, ari),
      detail = Map("points" -> nPoints, "objects" -> mod.nObjects, "steps" -> Steps,
                   "setup_s" -> setupS, "warmup_ms" -> warm, "timed_phase_s" -> phaseS, "ari" -> ari,
                   "subs" -> reference.subs.length, "reps" -> reference.reps.length))
  }

  /** Share of samples with a vote above 0, outside any span. */
  private def nonzeroFrac(points: DataFrame): Double = {
    import org.apache.spark.sql.functions.col
    val voted = Voting.votes(points, params.sigma).persist(StorageLevel.MEMORY_AND_DISK)
    try voted.where(col("vote") > 0).count().toDouble / voted.count()
    finally voted.unpersist()
  }

  /** One S2T run composed from the layers' public calls, a span each. */
  private def composed(ctx: Ctx, points: DataFrame): Out = {
    import ctx._
    import spark.implicits._
    tracer.span("core.s2t") {
      val voted = tracer.span("voting.votes") {
        val v = Voting.votes(points, params.sigma).persist(StorageLevel.MEMORY_AND_DISK)
        v.count()
        v
      }
      val subs = tracer.span("voting.segment") {
        Segmentation.segmentTrajectories(voted, params.segmentation).collect()
      }
      voted.unpersist()
      val reps = tracer.span("sampling.select")(Sampling.select(subs, params.sampling))
      val assignments = tracer.span("clustering.assign") {
        GreedyClustering.assign(spark.createDataset(subs.toIndexedSeq), reps, params.eps,
                                params.minOverlapFrac).collect()
      }
      Out(subs, reps, assignments)
    }
  }

  private def layerMetrics(ctx: Ctx, runs: Seq[Out], nonzeroVoteFrac: Double,
                           ari: Double): Map[String, Double] = {
    val tracer = ctx.tracer
    tracer.finish()
    def med(xs: Seq[Double]) = Stats.median(xs)
    def wall(span: String) = med(tracer.wallMs(span))
    Map(
      "traj.generate_ms" -> wall("traj.generate"),
      "voting.votes_ms" -> wall("voting.votes"),
      "voting.votes_task_ms" -> tracer.medianWork("voting.votes")(_.taskMs),
      "voting.votes_shuffle_write_bytes" -> tracer.medianWork("voting.votes")(_.shuffleWriteBytes),
      "voting.votes_shuffle_read_bytes" -> tracer.medianWork("voting.votes")(_.shuffleReadBytes),
      "voting.votes_spill_bytes" -> tracer.medianWork("voting.votes")(_.spillBytes),
      "voting.votes_jobs" -> tracer.medianWork("voting.votes")(_.jobs),
      "voting.nonzero_vote_frac" -> nonzeroVoteFrac,
      "voting.segment_ms" -> wall("voting.segment"),
      "voting.segment_shuffle_write_bytes" -> tracer.medianWork("voting.segment")(_.shuffleWriteBytes),
      "voting.subs_out" -> med(runs.map(_.subs.length.toDouble)),
      "sampling.select_ms" -> wall("sampling.select"),
      "sampling.reps_out" -> med(runs.map(_.reps.length.toDouble)),
      "clustering.assign_ms" -> wall("clustering.assign"),
      "clustering.outlier_frac" -> med(runs.map(o =>
        o.assignments.count(_.clusterId == Assignment.Outlier).toDouble / o.assignments.length)),
      "core.s2t_traced_ms" -> wall("core.s2t"),
      "eval.s2t_ari" -> ari)
  }
}
