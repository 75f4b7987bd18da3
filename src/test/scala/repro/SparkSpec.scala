package repro

import org.apache.spark.SparkFirehoseListener
import org.apache.spark.scheduler.{SparkListenerEvent, SparkListenerJobStart, SparkListenerStageCompleted}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import java.nio.file.{Files, Path}
import java.util.Comparator
import java.util.concurrent.{ConcurrentLinkedQueue, TimeUnit}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Using

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit).
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  private val tempDirs = mutable.ArrayBuffer.empty[Path]

  /** A fresh temporary directory, deleted with its contents after the suite. */
  def tempDir(prefix: String): String = {
    val d = Files.createTempDirectory(prefix)
    tempDirs += d
    d.toString
  }

  override def afterAll(): Unit = {
    try tempDirs.foreach(d =>
      Using.resource(Files.walk(d))(_.sorted(Comparator.reverseOrder[Path]()).forEach(Files.delete(_))))
    finally super.afterAll()
  }

  /** Runs `body`, which must throw with `reason` in the message of some
    * exception in its cause chain, and checks that the session caches the
    * same RDDs afterwards as before.
    */
  def assertRejectedWithoutLeak(reason: String)(body: => Any): Unit = {
    val before = spark.sparkContext.getPersistentRDDs.keySet
    val e = intercept[Exception](body)
    assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .exists(c => String.valueOf(c.getMessage).contains(reason)), e.toString)
    assert(spark.sparkContext.getPersistentRDDs.keySet == before, "a cached dataset leaked")
  }

  /** The listener events that `body` causes, in order. A marked job run
    * after `body` flushes the asynchronous listener bus: once its start event
    * arrives, every event of the jobs `body` started has been seen.
    */
  private def eventsDuring(body: => Any): Seq[SparkListenerEvent] = {
    val sc = spark.sparkContext
    val events = new ConcurrentLinkedQueue[SparkListenerEvent]()
    def isMark(e: SparkListenerEvent) = e match {
      case j: SparkListenerJobStart => Option(j.properties).exists(_.getProperty(SparkSpec.MarkKey) != null)
      case _ => false
    }
    val listener = new SparkFirehoseListener {
      override def onEvent(e: SparkListenerEvent): Unit = events.add(e)
    }
    sc.addSparkListener(listener)
    try {
      body
      sc.setLocalProperty(SparkSpec.MarkKey, "true")
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty(SparkSpec.MarkKey, null)
      val deadline = System.nanoTime() + TimeUnit.SECONDS.toNanos(30)
      while (!events.asScala.exists(isMark) && System.nanoTime() < deadline) Thread.sleep(10)
      assert(events.asScala.exists(isMark), "the listener never saw the marked job")
      events.asScala.takeWhile(!isMark(_)).toSeq
    } finally sc.removeSparkListener(listener)
  }

  /** The number of Spark jobs that `body` starts. */
  def jobsDuring(body: => Any): Int =
    eventsDuring(body).count(_.isInstanceOf[SparkListenerJobStart])

  /** The number of tasks of each stage that `body` runs, in completion order. */
  def stageTasksDuring(body: => Any): Seq[Int] =
    eventsDuring(body).collect { case s: SparkListenerStageCompleted => s.stageInfo.numTasks }
}

object SparkSpec {
  private val MarkKey = "repro.test.jobsDuringMark"

  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
