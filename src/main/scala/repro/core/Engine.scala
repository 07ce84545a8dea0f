package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import repro.core.Bindings.Binding
import repro.sparql.{Query, TriplePattern}

/** Metadata each engine self-reports; Tables I and II of the paper are
  * regenerated from these values (see `repro.bench.PaperTables`).
  */
final case class EngineInfo(
    citation: String,            // e.g. "[7]"
    name: String,                // e.g. "HAQWA"
    dataModel: String,           // "Triple" | "Graph"
    abstractions: Seq[String],   // of: RDD, DataFrames, Spark SQL, GraphX, GraphFrames
    queryProcessing: String,     // Table II column
    optimization: Boolean,       // Table II column
    partitioning: String,        // Table II column
    sparqlFragment: String,      // "BGP" | "BGP+"
)

/** A surveyed RDF query system: load triples once, then answer SPARQL
  * queries as DataFrames whose string columns are the projected variables.
  */
trait SparqlEngine {
  def info: EngineInfo

  /** Ingest the dataset (string columns s, p, o). May build indexes,
    * partitions, dictionaries, graphs — whatever the system's storage
    * layer prescribes.
    */
  def load(triples: DataFrame): Unit

  /** Answer a query; throws `IllegalArgumentException` naming the engine
    * when `supports` rejects it.
    */
  final def execute(q: Query): DataFrame = checked(q)(evaluate(q))

  /** Whether the engine's SPARQL fragment (paper Table II) covers `q`.
    * BGP systems take plain conjunctive patterns (+ solution modifiers);
    * BGP+ systems additionally take FILTER / OPTIONAL / UNION.
    */
  def supports(q: Query): Boolean =
    if (info.sparqlFragment == "BGP+") true else q.isPlainBgp

  /** Answer a query `supports` accepts. */
  protected def evaluate(q: Query): DataFrame

  /** The one fragment check every entry point goes through. */
  protected final def checked[T](q: Query)(run: => T): T = {
    require(supports(q), s"${info.name} does not support this query (SPARQL fragment ${info.sparqlFragment})")
    run
  }

  /** Prefix for this instance's Spark temp views: views are session-global,
    * so two instances that load different data must not share names.
    */
  protected final val viewPrefix: String =
    s"${getClass.getSimpleName.toLowerCase}${SparqlEngine.instances.incrementAndGet()}_"
}

object SparqlEngine {
  private val instances = new AtomicInteger()
}

/** An engine whose BGP matcher yields RDD bindings; FILTER, OPTIONAL,
  * UNION and the solution modifiers are [[Bindings.evaluate]]'s.
  */
trait RddBgpEngine extends SparqlEngine {
  protected def matchBgp(ps: Vector[TriplePattern]): RDD[Binding]
  protected def evaluate(q: Query): DataFrame = Bindings.evaluate(q, matchBgp)
}

/** An engine whose BGP matcher yields a DataFrame with one column per
  * variable; the rest of the query is [[PatternDf.evaluate]]'s.
  */
trait DataFrameBgpEngine extends SparqlEngine {
  protected def matchBgp(ps: Vector[TriplePattern]): DataFrame
  protected def evaluate(q: Query): DataFrame = PatternDf.evaluate(q, matchBgp)
}
