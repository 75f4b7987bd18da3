package repro.core

import repro.SparkSpec
import repro.Timing.record
import repro.eval.Quality
import repro.model.{Assignment, Series, SubTraj, TrajPoint}
import repro.traj.TrajGen
import repro.voting.{Segmentation, Voting}

class S2TClusteringSpec extends SparkSpec {

  private val genParams = TrajGen.Params(nGroups = 3, perGroup = 8, nNoise = 6,
                                         tSteps = 60, seed = 13L)
  private lazy val labeled = TrajGen.generateLocal(genParams)
  private lazy val points = TrajGen.points(TrajGen.generate(spark, genParams)).cache()
  private lazy val result = S2TClustering.run(points, S2TClustering.Params())

  test("every sample of the MOD ends up in exactly one sub-trajectory") {
    val covered = result.subs.map(_.size).sum
    assert(covered == labeled.length)
    val keys = result.subs.flatMap(s => s.ts.map(t => (s.objId, t)))
    assert(keys.distinct.length == keys.length, "a sample appeared in two sub-trajectories")
  }

  test("every sub-trajectory receives exactly one assignment") {
    assert(result.assignments.length == result.subs.length)
    val aKeys = result.assignments.map(a => (a.objId, a.subId)).toSet
    val sKeys = result.subs.map(_.key).toSet
    assert(aKeys == sKeys)
  }

  test("the sampling set respects maxReps") {
    assert(result.reps.length <= S2TClustering.Params().maxReps)
    assert(result.reps.nonEmpty)
  }

  test("the number of clusters is at least the number of planted groups") {
    assert(result.nClusters >= genParams.nGroups,
      s"found ${result.nClusters} clusters for ${genParams.nGroups} lanes")
  }

  test("cluster ids in assignments reference the sampling set") {
    val valid = result.reps.indices.toSet + Assignment.Outlier
    assert(result.assignments.forall(a => valid(a.clusterId)))
  }

  test("noise objects are predominantly outliers") {
    val noiseIds = (genParams.nGroups * genParams.perGroup until genParams.nObjects)
      .map(_.toLong).toSet
    val noiseAssignments = result.assignments.filter(a => noiseIds(a.objId))
    val outlierFrac = noiseAssignments.count(_.clusterId == Assignment.Outlier).toDouble /
      noiseAssignments.length
    assert(outlierFrac > 0.6, s"only $outlierFrac of noise sub-trajectories were outliers")
  }

  test("group members are predominantly clustered") {
    val groupIds = (0 until genParams.nGroups * genParams.perGroup).map(_.toLong).toSet
    val as = result.assignments.filter(a => groupIds(a.objId))
    val clusteredFrac = as.count(_.clusterId != Assignment.Outlier).toDouble / as.length
    assert(clusteredFrac > 0.7, s"only $clusteredFrac of group sub-trajectories clustered")
  }

  test("point-level ARI against planted groups is high") {
    val truth = labeled.map(lp => (lp.objId, lp.t) -> lp.label).toMap
    val subByKey = result.subs.map(s => s.key -> s).toMap
    val pairs = result.assignments.flatMap { a =>
      val s = subByKey((a.objId, a.subId))
      s.ts.map(t => truth((a.objId, t)) -> a.clusterId)
    }.toSeq
    val ari = Quality.ari(pairs)
    assert(ari > 0.5, s"S2T should recover planted groups, ARI=$ari")
  }

  test("members of one planted group land in the same cluster") {
    // majority cluster of each non-switching group member must coincide
    val byObj = result.assignments.groupBy(_.objId)
    for (g <- 0 until genParams.nGroups) {
      val members = (g * genParams.perGroup until (g + 1) * genParams.perGroup).map(_.toLong)
      val majorities = members.map { o =>
        byObj(o).groupBy(_.clusterId).maxBy(_._2.map(a => a.dist).length)._1
      }.filter(_ != Assignment.Outlier)
      assert(majorities.distinct.length <= 2,
        s"group $g scattered over clusters ${majorities.distinct}")
    }
  }

  test("phase timings are recorded for every phase") {
    val (_, s) = record(S2TClustering.run(points, S2TClustering.Params()))
    assert(s.ms.keys.toSeq == Seq("voting", "segmentation", "sampling", "assignment"))
    assert(s.ms.values.forall(_ >= 0))
    assert(s.ms.values.sum <= s.totalMs)
  }

  test("a rejected run releases the votes it cached") {
    points.count() // the input's own cache is not the run's
    val dup = points.union(points.where("obj_id = 0 AND t = 0"))
    assertRejectedWithoutLeak("duplicate samples")(S2TClustering.run(dup, S2TClustering.Params()))
  }

  /** S2T with no Spark: `votesLocal`, one series per object, then
    * segmentation and SaCO.
    */
  private def driverOnly(p: TrajGen.Params, s2t: S2TClustering.Params)
      : (Array[SubTraj], Array[SubTraj], Array[Assignment]) = {
    val pts = TrajGen.generateLocal(p).map(lp => TrajPoint(lp.objId, lp.t, lp.x, lp.y))
    val votes = Voting.votesLocal(pts, s2t.sigma)
    val series = pts.groupBy(_.objId).toArray.sortBy(_._1).map { case (_, ps) =>
      Series.fromRows(ps.map(q => (q.objId, q.t, q.x, q.y, votes((q.objId, q.t)))))
    }
    val subs = series.flatMap(Segmentation.segmentOne(_, s2t.segmentation))
    val (reps, assignments) = S2TClustering.localPhases(subs, s2t)
    (subs, reps, assignments)
  }

  test("run equals the driver-only reference on three seeds, one with switchers") {
    val s2t = S2TClustering.Params()
    for (p <- Seq(genParams, genParams.copy(seed = 29L), genParams.copy(switchFrac = 0.5, seed = 21L))) {
      val r = S2TClustering.run(TrajGen.points(TrajGen.generate(spark, p)), s2t)
      val (subs, reps, assignments) = driverOnly(p, s2t)
      assert(r.subs.map(s => (s.key, s.ts.toSeq)).toSeq == subs.map(s => (s.key, s.ts.toSeq)).toSeq,
        s"seed ${p.seed}: sub-trajectories differ")
      assert(r.reps.map(_.key).toSeq == reps.map(_.key).toSeq, s"seed ${p.seed}: representatives differ")
      assert(r.assignments.map(a => (a.objId, a.subId, a.clusterId)).toSeq ==
             assignments.map(a => (a.objId, a.subId, a.clusterId)).toSeq, s"seed ${p.seed}: assignments differ")
      r.assignments.zip(assignments).foreach { case (a, b) =>
        assert(a.dist == b.dist || math.abs(a.dist - b.dist) <= 1e-9, s"seed ${p.seed}: $a vs $b")
      }
    }
  }

  test("a run starts only the jobs of one votedSeries call") {
    points.count() // the input's own cache is not the run's
    val voting = jobsDuring(Voting.votedSeries(points, S2TClustering.Params().sigma))
    assert(voting >= 1)
    assert(jobsDuring(S2TClustering.run(points, S2TClustering.Params())) == voting)
  }

  // One case per field: each invalid value is rejected at construction,
  // naming the field, before any Spark job starts.
  for ((field, invalid) <- Seq[(String, Seq[() => S2TClustering.Params])](
         "sigma" -> Seq(() => S2TClustering.Params(sigma = 0.0), () => S2TClustering.Params(sigma = -1.5),
                        () => S2TClustering.Params(sigma = Double.NaN)),
         "lambda" -> Seq(() => S2TClustering.Params(lambda = -0.1), () => S2TClustering.Params(lambda = Double.NaN)),
         "minLen" -> Seq(() => S2TClustering.Params(minLen = 0), () => S2TClustering.Params(minLen = -3)),
         "maxGap" -> Seq(() => S2TClustering.Params(maxGap = -1L)),
         "maxReps" -> Seq(() => S2TClustering.Params(maxReps = 0), () => S2TClustering.Params(maxReps = -1)),
         "eps" -> Seq(() => S2TClustering.Params(eps = -1.0), () => S2TClustering.Params(eps = Double.NaN),
                      () => S2TClustering.Params(eps = Double.PositiveInfinity)),
         "minOverlapFrac" -> Seq(() => S2TClustering.Params(minOverlapFrac = -0.1),
                                 () => S2TClustering.Params(minOverlapFrac = 1.1),
                                 () => S2TClustering.Params(minOverlapFrac = Double.NaN)),
         "minAvgVote" -> Seq(() => S2TClustering.Params(minAvgVote = -0.1),
                             () => S2TClustering.Params(minAvgVote = Double.NaN),
                             () => S2TClustering.Params(minAvgVote = Double.PositiveInfinity)))) {
    test(s"Params reject an invalid $field before any Spark job starts") {
      points.count()
      val jobs = jobsDuring(invalid.foreach { params =>
        val e = intercept[IllegalArgumentException](S2TClustering.run(points, params()))
        assert(e.getMessage.contains(field), e.getMessage)
      })
      assert(jobs == 0)
    }
  }

  test("Params accept the bounds of every range") {
    S2TClustering.Params(lambda = 0.0, maxGap = 0L, eps = 0.0, minOverlapFrac = 0.0, minLen = 1, maxReps = 1,
                         minAvgVote = 0.0)
    S2TClustering.Params(minOverlapFrac = 1.0)
  }

  test("localPhases reproduces the distributed sampling + assignment") {
    val (reps, assigns) = S2TClustering.localPhases(result.subs, S2TClustering.Params())
    assert(reps.map(_.key).toSeq == result.reps.map(_.key).toSeq)
    val gotMap = assigns.map(a => (a.objId, a.subId) -> a.clusterId).toMap
    val expMap = result.assignments.map(a => (a.objId, a.subId) -> a.clusterId).toMap
    assert(gotMap == expMap)
  }

  test("partial group membership yields sub-trajectory level clusters (switchers)") {
    val p = genParams.copy(switchFrac = 0.5, seed = 21L)
    val pts = TrajGen.points(TrajGen.generate(spark, p))
    val r = S2TClustering.run(pts, S2TClustering.Params())
    // switchers (first half of each group) must have >= 2 sub-trajectories:
    // the co-moving part and the diverging part
    val switcherIds = (0 until p.nGroups).flatMap { g =>
      (g * p.perGroup until g * p.perGroup + p.perGroup / 2).map(_.toLong)
    }.toSet
    val subCounts = r.subs.filter(s => switcherIds(s.objId)).groupBy(_.objId)
      .map(_._2.length)
    assert(subCounts.forall(_ >= 2), "switching objects must be segmented")
    // and at least one of their sub-trajectories is clustered while another is not
    val byObj = r.assignments.filter(a => switcherIds(a.objId)).groupBy(_.objId)
    val mixed = byObj.values.count(as =>
      as.exists(_.clusterId != Assignment.Outlier) && as.exists(_.clusterId == Assignment.Outlier))
    assert(mixed >= switcherIds.size / 2,
      s"expected most switchers to be part-clustered part-outlier, got $mixed/${switcherIds.size}")
  }
}
