package repro.rdf

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Deterministic synthetic RDF dataset (social / product graph).
  *
  * Substitutes for the public RDF benchmarks (LUBM, WatDiv, DBpedia) the
  * surveyed systems were evaluated on: it has classes (`rdf:type`),
  * literal-valued *data properties* (name, age, label, price, cityName),
  * resource-valued *object properties* (follows, likes, livesIn) with a
  * zipf-skewed hub structure, and supports every query shape the paper
  * defines (star, linear, snowflake, complex).
  *
  * Output is a DataFrame with string columns `s`, `p`, `o` — the "triple
  * model" in its natural form. Deterministic in (sf, seed).
  *
  * Sizes at SF=1: 100k persons / 20k products / 2k cities ⇒ ~1.2M triples.
  * Tests use SF=0.005..0.01, benches SF≈0.05..0.1.
  */
object RdfSynth {

  final case class Sizes(persons: Long, products: Long, cities: Long) {
    def categories: Long = 20
  }

  def sizes(sf: Double): Sizes = Sizes(
    persons  = math.max(30L, (100000 * sf).toLong),
    products = math.max(10L, (20000 * sf).toLong),
    cities   = math.max(5L,  (2000 * sf).toLong),
  )

  /** Predicates whose objects are literals (node properties in Spar(k)ql's
    * model); `rdf:type` is special-cased there too, per that paper.
    */
  val DataProperties: Set[String] = Set("name", "age", "label", "price", "cityName")
  val TypeProperty = "rdf:type"

  def social(spark: SparkSession, sf: Double = 0.01, seed: Long = 11): DataFrame = {
    import spark.implicits._
    val sz = sizes(sf)
    val persons  = spark.range(1, sz.persons + 1).select(concat(lit("p"), $"id") as "e", $"id")
    val products = spark.range(1, sz.products + 1).select(concat(lit("pr"), $"id") as "e", $"id")
    val cities   = spark.range(1, sz.cities + 1).select(concat(lit("c"), $"id") as "e", $"id")

    def t(df: DataFrame, p: String, o: org.apache.spark.sql.Column): DataFrame =
      df.select($"e" as "s", lit(p) as "p", o.cast(StringType) as "o")

    val personTriples = Seq(
      t(persons, TypeProperty, lit("Person")),
      t(persons, "name", concat(lit("name"), $"id")),
      t(persons, "age", (rand(seed) * 63 + 18).cast(IntegerType)),
      t(persons, "livesIn", concat(lit("c"), (rand(seed + 1) * sz.cities + 1).cast(LongType))),
    )

    // follows: ~3 per person, zipf-skewed targets (hubs), no self-loops
    val follows = spark.range(sz.persons * 3).select(
      concat(lit("p"), (rand(seed + 2) * sz.persons + 1).cast(LongType)) as "s",
      lit("follows") as "p",
      concat(lit("p"),
        least(lit(sz.persons),
          greatest(lit(1L),
            pow(lit(1.0) / (rand(seed + 3) * 5.0 + 1e-9), lit(1.0 / 1.1)).cast(LongType)
          ))) as "o",
    ).where($"s" =!= $"o")

    // likes: ~2 per person, uniform products (some persons end up with none)
    val likes = spark.range(sz.persons * 2).select(
      concat(lit("p"), (rand(seed + 4) * sz.persons + 1).cast(LongType)) as "s",
      lit("likes") as "p",
      concat(lit("pr"), (rand(seed + 5) * sz.products + 1).cast(LongType)) as "o",
    )

    val productTriples = Seq(
      t(products, TypeProperty, lit("Product")),
      t(products, "label", concat(lit("product"), $"id")),
      t(products, "price", (rand(seed + 6) * 999 + 1).cast(IntegerType)),
      t(products, "category", concat(lit("cat"), (rand(seed + 7) * sz.categories + 1).cast(LongType))),
    )

    val cityTriples = Seq(
      t(cities, TypeProperty, lit("City")),
      t(cities, "cityName", concat(lit("cityname"), $"id")),
    )

    // RDF graphs are *sets* of triples; random draws (follows/likes) may
    // collide, so dedupe the final union.
    (personTriples ++ Seq(follows, likes) ++ productTriples ++ cityTriples)
      .reduce(_ unionAll _)
      .distinct()
  }
}
